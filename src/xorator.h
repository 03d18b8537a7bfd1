#ifndef XORATOR_XORATOR_H_
#define XORATOR_XORATOR_H_

/// Umbrella header for the XORator library: storing and querying XML data in
/// an object-relational DBMS (reproduction of Runapongsa & Patel, EDBT 2002).
///
/// Layering (each layer depends only on those above it):
///   common/    - Status/Result, string utilities, varints, timing
///   xml/       - XML + DTD parsing, DOM, serialization
///   dtdgraph/  - DTD simplification and the (revised) DTD graph
///   mapping/   - Hybrid / Shared / PerElement / XORator schema mappers
///   xadt/      - the XADT value format, methods and engine UDF bindings
///   ordb/      - the embedded object-relational engine (storage, B+-trees,
///                executor, SQL, UDFs)
///   shred/     - document shredding, bulk loading, reconstruction
///   datagen/   - synthetic Shakespeare / SIGMOD corpora and a generic
///                DTD-driven generator
///   xpath/     - path-expression to SQL translation for either mapping
///   server/    - the network front end: wire protocol, per-connection
///                socket server and retrying client (DESIGN.md section 17)

#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "dtdgraph/dtd_graph.h"
#include "dtdgraph/simplify.h"
#include "mapping/mapper.h"
#include "mapping/schema.h"
#include "ordb/database.h"
#include "mapping/xml_stats.h"
#include "shred/loader.h"
#include "shred/reconstruct.h"
#include "shred/shredder.h"
#include "xadt/functions.h"
#include "xadt/xadt.h"
#include "xml/dom.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "xml/serializer.h"
#include "xpath/xpath.h"

#endif  // XORATOR_XORATOR_H_

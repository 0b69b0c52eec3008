// qp.h — the library's public surface in one include.
//
// Pulls in the two front doors and everything their signatures mention:
//
//   qp::core::Personalizer        cold path: full pipeline per call
//   qp::core::PersonalizeOptions  one options struct for both paths
//   qp::core::PersonalizedAnswer  ranked, self-explanatory result tuples
//   qp::serve::ServingContext     warm path: cached multi-user serving
//   qp::serve::Session            per-user cache (graph, selections, plans)
//   qp::serve::Scheduler          async admission-controlled request queue
//                                 (lanes, deadlines, partial answers)
//   qp::Status / qp::Result<T>    error handling (Status codes classify
//                                 caller bugs, overload and interruption)
//
// plus the supporting vocabulary types they expose: UserProfile, DoiPair,
// RankingFunction, DescriptorRegistry, SelectQuery / ParseQuery, the
// exec::ExecOptions threading knobs, the secondary-index DDL
// (qp::Database::CreateIndex / DropIndex with qp::IndexKind, catalog
// introspection via qp::IndexCatalog), and the qp::obs observability
// primitives (TraceSpan for per-call tracing / EXPLAIN ANALYZE,
// MetricsRegistry behind ServingContext::MetricsText). Tools that generate
// data or simulate users keep including datagen/ and sim/ headers directly
// — those are internal to the experiments, not part of the serving surface.

#pragma once

#include "common/status.h"
#include "core/personalizer.h"
#include "core/pipeline.h"
#include "index/catalog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/scheduler.h"
#include "serve/serving_context.h"
#include "sql/parser.h"

namespace qp {

// Convenience aliases so applications can write qp::Personalizer without
// caring which layer a name lives in.
using core::AnswerAlgorithm;
using core::PersonalizedAnswer;
using core::PersonalizeOptions;
using core::Personalizer;
using core::SelectionAlgorithm;
using core::UserProfile;
using obs::FlightRecorder;
using obs::MetricsRegistry;
using obs::QueryLog;
using obs::TraceSpan;
using obs::TraceToChromeJson;
using common::CancelToken;
using index::IndexCatalog;
using index::IndexKind;
using storage::Database;
using serve::Lane;
using serve::RequestHandle;
using serve::Scheduler;
using serve::ServeCounters;
using serve::ServingContext;
using serve::Session;

}  // namespace qp

// The three workloads of the end-to-end benchmark. Every operation goes
// from query text (or a delta batch) to result rows through the public
// raqlet::Compiler API, is checked against the benchmark's own answer with
// its timer paused, and stops its timer only after its result and compiled
// artefacts have been released.
//
// Untraced rounds call the facade as a user would (Compiler::CompileCypher,
// RunOnDatalog, ...). Traced rounds make the same calls one layer at a time
// (frontend parse, PGIR lowering, DLIR translation, each optimizer pass in
// pipeline order, engine run, release), each inside a span.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <set>
#include <sstream>

#include "analysis/typecheck.h"
#include "bench.h"
#include "cypher/parser.h"
#include "gql/parser.h"
#include "ldbc/ldbc.h"
#include "obs/trace.h"
#include "opt/pass_manager.h"
#include "pgir/pgir_to_dlir.h"
#include "raqlet/compiler.h"
#include "sqlpgq/parser.h"

namespace bench {
namespace {

using raqlet::Database;
using raqlet::Relation;
using raqlet::Status;
using raqlet::Tuple;
using raqlet::Value;
using raqlet::engine::ResultTable;
template <typename T>
using Result = raqlet::Result<T>;

constexpr char kCheckSpan[] = "bench.check";
constexpr int kOptLevel = 2;
constexpr double kScaleFactor = 1.0;  // 1000 persons, ~4.9k KNOWS, 8k messages
constexpr int kAnalyticsThreads = 4;

enum class Frontend { kCypher, kGql, kSqlPgq, kDatalog };
enum class Engine { kDatalog, kSql, kGraph };

const char* FrontendName(Frontend f) {
  switch (f) {
    case Frontend::kCypher: return "cypher";
    case Frontend::kGql: return "gql";
    case Frontend::kSqlPgq: return "sqlpgq";
    case Frontend::kDatalog: return "dlir";
  }
  return "?";
}

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kDatalog: return "datalog";
    case Engine::kSql: return "sql";
    case Engine::kGraph: return "graph";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Query texts. GQL spells WHERE as a FILTER statement; SQL/PGQ wraps the
// pattern in GRAPH_TABLE. SQL/PGQ has no WITH, so it does not cover the
// aggregation template.
// ---------------------------------------------------------------------------

struct Template {
  std::string name;
  std::vector<std::pair<Frontend, std::string>> texts;
};

Template MakeTemplate(std::string name, std::string cypher, std::string gql,
                      std::string pgq) {
  Template t;
  t.name = std::move(name);
  t.texts.emplace_back(Frontend::kCypher, std::move(cypher));
  t.texts.emplace_back(Frontend::kGql, std::move(gql));
  if (!pgq.empty()) t.texts.emplace_back(Frontend::kSqlPgq, std::move(pgq));
  return t;
}

constexpr char kCq2Gql[] = R"(
MATCH (p:Person {id: $personId})-[:KNOWS]-(friend:Person)<-[:HAS_CREATOR]-(m:Message)
FILTER m.creationDate <= $maxDate
RETURN DISTINCT
  friend.id AS personId,
  friend.firstName AS personFirstName,
  friend.lastName AS personLastName,
  m.id AS messageId,
  m.content AS messageContent,
  m.creationDate AS messageCreationDate
)";

constexpr char kSq1Pgq[] = R"(
SELECT DISTINCT * FROM GRAPH_TABLE (social,
  MATCH (n IS Person WHERE n.id = $personId)-[IS isLocatedIn]->(p IS City)
  COLUMNS (n.firstName AS firstName, n.lastName AS lastName,
           n.birthday AS birthday, n.locationIP AS locationIP,
           n.browserUsed AS browserUsed, p.id AS cityId, n.gender AS gender,
           n.creationDate AS creationDate))
)";

constexpr char kCq2Pgq[] = R"(
SELECT DISTINCT * FROM GRAPH_TABLE (social,
  MATCH (p IS Person WHERE p.id = $personId)-[IS knows]-(friend IS Person)
        <-[IS hasCreator]-(m IS Message)
  WHERE m.creationDate <= $maxDate
  COLUMNS (friend.id AS personId, friend.firstName AS personFirstName,
           friend.lastName AS personLastName, m.id AS messageId,
           m.content AS messageContent,
           m.creationDate AS messageCreationDate))
)";

constexpr char kF3hPgq[] = R"(
SELECT DISTINCT * FROM GRAPH_TABLE (social,
  MATCH (p IS Person WHERE p.id = $personId)-[IS knows]->{1,3}(q IS Person)
  COLUMNS (q.id AS personId))
)";

constexpr char kReachPgq[] = R"(
SELECT DISTINCT * FROM GRAPH_TABLE (social,
  MATCH (p IS Person WHERE p.id = $personId)-[IS knows]->{1,}(q IS Person)
  COLUMNS (q.id AS personId))
)";

constexpr char kClosureCypher[] = R"(
MATCH (p:Person)-[:KNOWS*]->(q:Person)
RETURN DISTINCT p.id AS src, q.id AS dst
)";

constexpr char kTcDatalog[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, z) :- tc(x, y), edge(y, z).
)";

// The maintained view of delta_churn: a non-recursive projection of KNOWS
// (support counting; parallel KNOWS edges give a pair several supports)
// under a recursive reachability from a set of source persons (DRed).
constexpr char kViewDatalog[] = R"(
.decl Person_KNOWS_Person(id1: number, id2: number, id: number, creationDate: number)
.input Person_KNOWS_Person
.decl view_source(x: number)
.input view_source
.decl view_edge(x: number, y: number)
view_edge(x, y) :- Person_KNOWS_Person(x, y, _, _).
.decl view_reach(s: number, y: number)
.output view_reach
view_reach(s, y) :- view_source(s), view_edge(s, y).
view_reach(s, z) :- view_reach(s, y), view_edge(y, z).
)";

enum TemplateId { kSq1, kCq2, kFmc, kF3h, kReach, kSp, kClosure, kTc };

std::vector<Template> MakeTemplates() {
  std::vector<Template> t;
  t.push_back(MakeTemplate("sq1", raqlet::ldbc::ShortQuery1(),
                           raqlet::ldbc::ShortQuery1(), kSq1Pgq));
  t.push_back(MakeTemplate("cq2", raqlet::ldbc::ComplexQuery2(), kCq2Gql,
                           kCq2Pgq));
  t.push_back(MakeTemplate("fmc", raqlet::ldbc::FriendMessageCounts(),
                           raqlet::ldbc::FriendMessageCounts(), ""));
  t.push_back(MakeTemplate("f3h", raqlet::ldbc::FriendsWithinThreeHops(),
                           raqlet::ldbc::FriendsWithinThreeHops(), kF3hPgq));
  t.push_back(MakeTemplate("reach", raqlet::ldbc::ReachabilityQuery(),
                           raqlet::ldbc::ReachabilityQuery(), kReachPgq));
  Template sp;
  sp.name = "sp";
  sp.texts.emplace_back(Frontend::kCypher,
                        raqlet::ldbc::ShortestPathQuery());
  t.push_back(std::move(sp));
  Template closure;
  closure.name = "closure";
  closure.texts.emplace_back(Frontend::kCypher, kClosureCypher);
  t.push_back(std::move(closure));
  Template tc;
  tc.name = "tc";
  tc.texts.emplace_back(Frontend::kDatalog, kTcDatalog);
  t.push_back(std::move(tc));
  return t;
}

// ---------------------------------------------------------------------------
// The benchmark's own view of the generated data.
// ---------------------------------------------------------------------------

struct SnbOracle {
  Graph knows;                                   // directed KNOWS
  std::vector<std::vector<int64_t>> undirected;  // distinct neighbours
  std::vector<Tuple> person;                     // indexed by id
  std::vector<int64_t> city_of;                  // indexed by person id
  std::vector<Tuple> message;                    // indexed by id
  std::vector<std::vector<int64_t>> messages_of;  // creator id -> messages
};

std::vector<Tuple> RowsOf(Database* db, const char* name) {
  auto rel = db->GetRelation(name);
  return rel.ok() ? (*rel)->MaterializeRows() : std::vector<Tuple>{};
}

Graph GraphFromPairs(int64_t nodes,
                     const std::vector<std::pair<int64_t, int64_t>>& edges) {
  Graph g;
  g.nodes = nodes;
  g.out.assign(static_cast<size_t>(nodes) + 1, {});
  for (const auto& [a, b] : edges) g.out[static_cast<size_t>(a)].push_back(b);
  return g;
}

SnbOracle BuildSnbOracle(Database* db, int64_t persons) {
  SnbOracle o;
  o.person.assign(static_cast<size_t>(persons) + 1, {});
  for (Tuple& row : RowsOf(db, "Person")) {
    size_t id = static_cast<size_t>(row[0].AsNumber());
    o.person[id] = std::move(row);
  }
  o.city_of.assign(static_cast<size_t>(persons) + 1, -1);
  for (const Tuple& row : RowsOf(db, "Person_IS_LOCATED_IN_City")) {
    o.city_of[static_cast<size_t>(row[0].AsNumber())] = row[1].AsNumber();
  }
  std::vector<std::pair<int64_t, int64_t>> edges;
  std::vector<std::set<int64_t>> neighbours(static_cast<size_t>(persons) + 1);
  for (const Tuple& row : RowsOf(db, "Person_KNOWS_Person")) {
    int64_t a = row[0].AsNumber();
    int64_t b = row[1].AsNumber();
    edges.emplace_back(a, b);
    neighbours[static_cast<size_t>(a)].insert(b);
    neighbours[static_cast<size_t>(b)].insert(a);
  }
  o.knows = GraphFromPairs(persons, edges);
  for (const auto& n : neighbours) {
    o.undirected.emplace_back(n.begin(), n.end());
  }
  std::vector<Tuple> messages = RowsOf(db, "Message");
  o.message.assign(messages.size() + 1, {});
  for (Tuple& row : messages) {
    size_t id = static_cast<size_t>(row[0].AsNumber());
    if (id >= o.message.size()) o.message.resize(id + 1);
    o.message[id] = std::move(row);
  }
  o.messages_of.assign(static_cast<size_t>(persons) + 1, {});
  for (const Tuple& row : RowsOf(db, "Message_HAS_CREATOR_Person")) {
    o.messages_of[static_cast<size_t>(row[1].AsNumber())].push_back(
        row[0].AsNumber());
  }
  return o;
}

using Checker = std::function<std::string(const ResultTable&)>;

Checker Expect(Canonical want) {
  return [want = std::move(want)](const ResultTable& got) {
    return Compare(Canonicalize(got, want.arity), want);
  };
}

Checker InteractiveChecker(const SnbOracle& o, TemplateId t, int64_t pid,
                           int64_t max_date) {
  std::vector<Tuple> rows;
  switch (t) {
    case kSq1: {
      const Tuple& p = o.person[static_cast<size_t>(pid)];
      rows.push_back({p[1], p[2], p[4], p[6], p[7],
                      Value::Number(o.city_of[static_cast<size_t>(pid)]),
                      p[3], p[5]});
      return Expect(CanonicalRows(std::move(rows), 8));
    }
    case kCq2:
      for (int64_t f : o.undirected[static_cast<size_t>(pid)]) {
        const Tuple& friend_row = o.person[static_cast<size_t>(f)];
        for (int64_t m : o.messages_of[static_cast<size_t>(f)]) {
          const Tuple& msg = o.message[static_cast<size_t>(m)];
          if (msg[2].AsNumber() > max_date) continue;
          rows.push_back({Value::Number(f), friend_row[1], friend_row[2],
                          Value::Number(m), msg[1], msg[2]});
        }
      }
      return Expect(CanonicalRows(std::move(rows), 6));
    case kFmc: {
      std::vector<std::pair<int64_t, int64_t>> counts;
      for (int64_t f : o.undirected[static_cast<size_t>(pid)]) {
        size_t n = o.messages_of[static_cast<size_t>(f)].size();
        if (n > 0) counts.emplace_back(f, static_cast<int64_t>(n));
      }
      return Expect(CanonicalPairs(std::move(counts)));
    }
    case kF3h:
      return Expect(CanonicalIds(WithinHops(o.knows, pid, 3)));
    case kReach:
      return Expect(CanonicalIds(ReachableFrom(o.knows, pid)));
    case kSp:
      return Expect(CanonicalPairs(DistancesFrom(o.knows, pid)));
    default:
      break;
  }
  return [](const ResultTable&) { return std::string("no checker"); };
}

// All (source, target) pairs of the closure of `g` over `sources`.
Canonical ClosureOf(const Graph& g, const std::vector<int64_t>& sources) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t s : sources) {
    for (int64_t t : ReachableFrom(g, s)) pairs.emplace_back(s, t);
  }
  return CanonicalPairs(std::move(pairs));
}

std::vector<int64_t> AllNodes(int64_t n) {
  std::vector<int64_t> ids;
  for (int64_t i = 1; i <= n; ++i) ids.push_back(i);
  return ids;
}

// ---------------------------------------------------------------------------
// Per-run state and one operation.
// ---------------------------------------------------------------------------

struct Query {
  std::string cls;  // operation class for the per-class table
  Frontend frontend = Frontend::kCypher;
  const std::string* text = nullptr;
  std::map<std::string, raqlet::dlir::Constant> params;
  Engine engine = Engine::kDatalog;
  int threads = 1;
};

struct OpOutcome {
  double latency_ms = 0;
  double compile_us = 0;
  bool failed = false;
  std::string error;  // failure status, or why the rows are wrong
  bool wrong = false;
};

struct Stats {
  std::vector<double> round_rates;  // completed ops per busy second, per round
  std::vector<double> latency_ms;
  std::vector<double> compile_us;
  double busy_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
};

struct ClassStats {
  std::vector<double> latency_ms;
  double compile_us = 0;
};

// Raw counters of the traced rounds, folded into ratios at the end.
struct EngineCounters {
  double considered = 0, inserted = 0;
  double dedup_attempts = 0, dedup_inserted = 0;
  double memory_bytes = 0, memory_rows = 0;
  double scaling_1t_ms = 0, scaling_4t_ms = 0;
};

struct Session {
  raqlet::Compiler compiler;
  Database db;
  std::optional<raqlet::engine::GraphStore> store;
  std::vector<Template> templates = MakeTemplates();
  std::vector<raqlet::opt::PassInfo> pipeline;  // opt-level-2 passes in order
  std::vector<std::string> pass_spans;          // "opt.<pass>"
  bool verify_each_pass = raqlet::opt::OptOptions().verify_each_pass;
  std::mt19937_64 rng;
  int64_t persons = 0;

  Tracer* tracer = nullptr;  // non-null during traced rounds
  LayerMetrics layers;
  EngineCounters counters;
  std::map<std::string, ClassStats> classes;
  std::map<std::string, size_t> rotation;  // per-template frontend turn
  int64_t next_op = 0;
};

// Compiled artefacts of one query. Untraced rounds hold the facade's
// CompiledQuery; traced rounds hold the per-layer pieces. Release() frees
// them, inside the operation's timer.
struct Compiled {
  std::optional<Result<raqlet::CompiledQuery>> unit;
  std::optional<Result<raqlet::dlir::Program>> datalog;
  std::optional<raqlet::cypher::Query> ast;
  std::optional<raqlet::pgir::PgirQuery> pgir;
  std::optional<raqlet::dlir::Program> dlir;
  std::vector<raqlet::dlir::Program> stages;  // one per optimizer pass
  Status status;

  const raqlet::dlir::Program* optimized() const {
    if (unit) return &(*unit)->optimized;
    if (datalog) return &**datalog;
    return stages.empty() ? &*dlir : &stages.back();
  }
  const raqlet::pgir::PgirQuery* pgir_query() const {
    if (unit) return &(*unit)->pgir;
    return pgir ? &*pgir : nullptr;
  }
  void Release() {
    unit.reset();
    datalog.reset();
    stages.clear();
    dlir.reset();
    pgir.reset();
    ast.reset();
  }
};

void CompileUntraced(Session& s, const Query& q, Compiled* c) {
  raqlet::CompileOptions options;
  options.opt_level = kOptLevel;
  options.parameters = q.params;
  switch (q.frontend) {
    case Frontend::kCypher:
      c->unit.emplace(s.compiler.CompileCypher(*q.text, options));
      break;
    case Frontend::kGql:
      c->unit.emplace(s.compiler.CompileGql(*q.text, options));
      break;
    case Frontend::kSqlPgq:
      c->unit.emplace(s.compiler.CompileSqlPgq(*q.text, options));
      break;
    case Frontend::kDatalog: {
      Result<raqlet::dlir::Program> parsed =
          s.compiler.CompileDatalog(*q.text);
      if (parsed.ok()) {
        c->datalog.emplace(s.compiler.Optimize(*parsed, kOptLevel));
      } else {
        c->datalog.emplace(parsed.status());
      }
      break;
    }
  }
  c->status = c->unit ? c->unit->status() : c->datalog->status();
}

template <typename T>
bool Take(Result<T> r, std::optional<T>* slot, Status* status) {
  if (!r.ok()) {
    *status = r.status();
    return false;
  }
  slot->emplace(std::move(r).value());
  return true;
}

void CompileTraced(Session& s, const Query& q, int64_t op, Compiled* c) {
  Tracer* tr = s.tracer;
  const std::string parse_span = std::string(FrontendName(q.frontend)) +
                                 ".parse";
  {
    ScopedSpan span(tr, parse_span.c_str(), op);
    switch (q.frontend) {
      case Frontend::kCypher:
        if (!Take(raqlet::cypher::ParseQuery(*q.text), &c->ast, &c->status))
          return;
        break;
      case Frontend::kGql:
        if (!Take(raqlet::gql::ParseQuery(*q.text), &c->ast, &c->status))
          return;
        break;
      case Frontend::kSqlPgq: {
        auto pgq = raqlet::sqlpgq::ParseQuery(*q.text);
        if (!pgq.ok()) {
          c->status = pgq.status();
          return;
        }
        c->ast.emplace(std::move(pgq->query));
        break;
      }
      case Frontend::kDatalog:
        if (!Take(s.compiler.ParseDatalog(*q.text), &c->dlir, &c->status))
          return;
        break;
    }
  }
  if (q.frontend == Frontend::kDatalog) {
    ScopedSpan span(tr, "analysis.verify", op);
    c->status = s.compiler.Check(*c->dlir);
    if (!c->status.ok()) return;
  } else {
    raqlet::pgir::LowerOptions lower;
    lower.parameters = q.params;
    {
      ScopedSpan span(tr, "pgir.lower", op);
      if (!Take(raqlet::pgir::LowerCypher(*c->ast, lower), &c->pgir,
                &c->status))
        return;
    }
    {
      ScopedSpan span(tr, "pgir.translate", op);
      if (!Take(raqlet::pgir::TranslateToDlir(*c->pgir,
                                              s.compiler.dl_schema()),
                &c->dlir, &c->status))
        return;
    }
  }
  ScopedSpan optimize(tr, "opt.optimize", op);
  c->stages.reserve(s.pipeline.size());
  const raqlet::dlir::Program* current = &*c->dlir;
  for (size_t i = 0; i < s.pipeline.size(); ++i) {
    ScopedSpan span(tr, s.pass_spans[i].c_str(), op);
    Result<raqlet::dlir::Program> next = s.pipeline[i].fn(*current);
    if (!next.ok()) {
      c->status = next.status();
      return;
    }
    if (s.verify_each_pass) {
      c->status = raqlet::analysis::VerifyProgram(*next);
      if (!c->status.ok()) return;
    }
    c->stages.push_back(std::move(next).value());
    current = &c->stages.back();
  }
}

Result<ResultTable> Execute(Session& s, const Query& q, const Compiled& c,
                            raqlet::obs::QueryMetrics* metrics) {
  switch (q.engine) {
    case Engine::kDatalog: {
      raqlet::engine::EvalOptions options;
      options.num_threads = q.threads;
      return s.compiler.RunOnDatalog(*c.optimized(), &s.db, nullptr, options,
                                     metrics);
    }
    case Engine::kSql:
      return s.compiler.RunOnSql(*c.optimized(), &s.db,
                                 raqlet::engine::SqlMode::kVectorized, nullptr,
                                 q.threads, metrics);
    case Engine::kGraph:
      if (c.pgir_query() == nullptr || !s.store) {
        return Status::InvalidArgument("graph engine needs a pattern query");
      }
      return s.compiler.RunOnGraph(*c.pgir_query(), *s.store, &s.db, nullptr,
                                   {}, metrics);
  }
  return Status::InvalidArgument("unknown engine");
}

// Folds the engine detail of one traced operation into the per-layer
// metrics. Runs inside the excluded check span.
void FoldQueryMetrics(Session& s, const Query& q, const Compiled& c,
                      const raqlet::obs::QueryMetrics& m) {
  LayerMetrics& L = s.layers;
  L.Add("dlir.rules_translated", static_cast<double>(c.dlir->rules.size()));
  L.Add("dlir.rules_optimized",
        static_cast<double>(c.optimized()->rules.size()));
  // A pass "applied" when its output differs from its input.
  std::string before = s.compiler.EmitSouffle(*c.dlir);
  for (size_t i = 0; i < c.stages.size(); ++i) {
    std::string after = s.compiler.EmitSouffle(c.stages[i]);
    L.Add(s.pass_spans[i] + ".applied", after != before ? 1.0 : 0.0);
    before = std::move(after);
  }
  switch (q.engine) {
    case Engine::kDatalog: {
      double considered = 0, inserted = 0;
      for (const auto& scc : m.datalog.sccs) {
        considered += static_cast<double>(scc.tuples_considered);
        inserted += static_cast<double>(scc.tuples_inserted);
      }
      L.Add("engine.datalog.tuples_considered", considered);
      L.Add("engine.datalog.tuples_inserted", inserted);
      s.counters.considered += considered;
      s.counters.inserted += inserted;
      break;
    }
    case Engine::kSql: {
      double matched = 0;
      for (const auto& cte : m.sql.ctes) {
        s.counters.dedup_attempts += static_cast<double>(cte.dedup_attempts);
        s.counters.dedup_inserted += static_cast<double>(cte.dedup_inserted);
        for (const auto& step : cte.steps) {
          matched += static_cast<double>(step.rows_matched);
        }
      }
      L.Add("engine.sql.rows_matched", matched);
      // DLIR -> SQIR translation on its own (RunOnSql repeats it inside
      // engine.sql.execute).
      auto t0 = Clock::now();
      auto sqir = s.compiler.ToSqir(*c.optimized());
      L.Add("sqir.translate_us", MicrosBetween(t0, Clock::now()));
      break;
    }
    case Engine::kGraph: {
      double match_rows = 0;
      for (const auto& clause : m.graph.clauses) {
        if (clause.kind == "match") {
          match_rows += static_cast<double>(clause.rows_after);
        }
      }
      L.Add("engine.graph.match_rows", match_rows);
      L.Add("engine.graph.match_rows." + q.cls, match_rows);
      L.Add("engine.graph.closure_misses",
            static_cast<double>(m.graph.closure_cache_misses));
      break;
    }
  }
  for (const auto& rel : m.memory) {
    s.counters.memory_bytes += static_cast<double>(rel.bytes);
    s.counters.memory_rows += static_cast<double>(rel.rows);
  }
}

// Sums the Datalog engine's own join and merge spans that fall inside
// [begin, end] (steady clock) into the per-layer metrics.
void FoldEngineSpans(Session& s, const raqlet::obs::TraceSession& trace,
                     Clock::time_point origin, Clock::time_point begin,
                     Clock::time_point end) {
  const double lo = MicrosBetween(origin, begin) - 5;
  const double hi = MicrosBetween(origin, end) + 5;
  double join_us = 0, merge_us = 0;
  for (const raqlet::obs::TraceEvent& e : trace.Events()) {
    if (e.ts_us < lo || e.ts_us + e.dur_us > hi) continue;
    if (e.name.rfind("datalog.variant", 0) == 0) join_us += e.dur_us;
    if (e.name == "datalog.merge") merge_us += e.dur_us;
  }
  s.layers.Add("engine.datalog.join_ms", join_us / 1000.0);
  s.layers.Add("engine.datalog.merge_ms", merge_us / 1000.0);
}

const char* EngineSpan(Engine e) {
  switch (e) {
    case Engine::kDatalog: return "engine.datalog.execute";
    case Engine::kSql: return "engine.sql.execute";
    case Engine::kGraph: return "engine.graph.execute";
  }
  return "engine.execute";
}

// Everything one operation needs besides its query: an optional delta batch
// applied first, and the checks that read the state afterwards.
struct OpHooks {
  // Runs before the query, inside the timer (delta_churn's ApplyDelta).
  std::function<Status(raqlet::obs::QueryMetrics*)> before;
  // Checks the rows (timer paused); returns why they are wrong, or "".
  Checker check;
};

OpOutcome RunOp(Session& s, const Query& q, const OpHooks& hooks) {
  OpOutcome out;
  Tracer* tr = s.tracer;
  const int64_t op = s.next_op++;
  Compiled c;
  std::optional<Result<ResultTable>> result;
  std::optional<raqlet::obs::TraceSession> engine_trace;
  raqlet::obs::QueryMetrics metrics;
  raqlet::obs::QueryMetrics* sink = tr ? &metrics : nullptr;
  Clock::time_point trace_origin;
  if (tr != nullptr) {
    trace_origin = Clock::now();
    engine_trace.emplace();
  }
  int root = tr ? tr->Begin(q.cls, op) : -1;
  Status status;

  auto t0 = Clock::now();
  if (hooks.before) {
    ScopedSpan span(tr, "engine.incremental.apply", op);
    status = hooks.before(sink);
  }
  auto t1 = Clock::now();
  if (status.ok()) {
    if (tr) {
      CompileTraced(s, q, op, &c);
    } else {
      CompileUntraced(s, q, &c);
    }
    status = c.status;
  }
  auto t2 = Clock::now();
  int exec_span = -1;
  if (status.ok()) {
    raqlet::obs::QueryMetrics query_metrics;
    exec_span = tr ? tr->Begin(EngineSpan(q.engine), op) : -1;
    result.emplace(Execute(s, q, c, tr ? &query_metrics : nullptr));
    if (tr) tr->End(exec_span);
    status = result->status();
    metrics = std::move(query_metrics);
  }
  auto t3 = Clock::now();
  {
    ScopedSpan span(tr, kCheckSpan, op);
    if (status.ok()) {
      out.error = hooks.check(**result);
      out.wrong = !out.error.empty();
      if (tr) FoldQueryMetrics(s, q, c, metrics);
    }
  }
  auto t4 = Clock::now();
  {
    ScopedSpan span(tr, "engine.result_release", op);
    result.reset();
  }
  {
    ScopedSpan span(tr, "compile.release", op);
    c.Release();
  }
  auto t5 = Clock::now();
  if (tr != nullptr) {
    tr->End(root);
    if (exec_span >= 0 && q.engine == Engine::kDatalog) {
      const Span& e = tr->spans()[static_cast<size_t>(exec_span)];
      FoldEngineSpans(s, *engine_trace, trace_origin, e.start, e.end);
    }
    engine_trace.reset();
  }
  if (!status.ok()) {
    out.failed = true;
    out.error = status.ToString();
  }
  out.latency_ms = (MicrosBetween(t0, t3) + MicrosBetween(t4, t5)) / 1000.0;
  out.compile_us = MicrosBetween(t1, t2);
  return out;
}

void Record(Session& s, const std::string& cls, const OpOutcome& o,
            Stats* st, std::ostream& log) {
  ++st->attempted;
  st->busy_s += o.latency_ms / 1000.0;
  if (o.failed) {
    ++st->failed;
    if (st->failed <= 3) log << "FAILED " << cls << ": " << o.error << "\n";
    return;
  }
  if (o.wrong) {
    ++st->wrong;
    if (st->wrong <= 3) log << "WRONG " << cls << ": " << o.error << "\n";
  }
  st->latency_ms.push_back(o.latency_ms);
  st->compile_us.push_back(o.compile_us);
  ClassStats& c = s.classes[cls];
  c.latency_ms.push_back(o.latency_ms);
  c.compile_us += o.compile_us;
}

Query MakeQuery(Session& s, TemplateId t, Engine engine, int threads) {
  const Template& tmpl = s.templates[t];
  size_t& turn = s.rotation[tmpl.name];
  const auto& [frontend, text] = tmpl.texts[turn++ % tmpl.texts.size()];
  Query q;
  q.frontend = frontend;
  q.text = &text;
  q.engine = engine;
  q.threads = threads;
  q.cls = tmpl.name + "/" + EngineName(engine);
  return q;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------------

// One workload: set-up (timed into setup_s) and one round of operations.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status Setup(Session& s, unsigned seed) = 0;
  // Work that is neither set-up nor measured (oracle answers).
  virtual void Prepare(Session&) {}
  virtual void Round(Session& s, Stats* st, std::ostream& log) = 0;
  // Checks made once, after the last round ("" when fine).
  virtual std::string Finish(Session&) { return ""; }
  // Traced-run extras printed and folded once the rounds are done.
  virtual void TracedExtras(Session&, std::ostream&) {}
};

Status LoadSnb(Session& s, unsigned seed, bool graph_store) {
  RAQLET_RETURN_IF_ERROR(s.compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()));
  RAQLET_RETURN_IF_ERROR(s.compiler.CreateEdbs(&s.db));
  raqlet::ldbc::GeneratorOptions gen;
  gen.scale_factor = kScaleFactor;
  gen.seed = seed;
  s.persons = gen.persons();
  auto t0 = Clock::now();
  RAQLET_RETURN_IF_ERROR(
      raqlet::ldbc::GenerateSnbData(s.compiler.dl_schema(), &s.db, gen));
  auto t1 = Clock::now();
  s.layers.Set("ldbc.generate_s", MicrosBetween(t0, t1) / 1e6);
  if (graph_store) {
    RAQLET_ASSIGN_OR_RETURN(raqlet::engine::GraphStore store,
                            s.compiler.BuildGraphStore(s.db));
    s.store.emplace(std::move(store));
    s.layers.Set("engine.graph.build_store_s",
                 MicrosBetween(t1, Clock::now()) / 1e6);
  }
  return Status::OK();
}

// interactive_reads: parameterized LDBC reads, serial, opt level 2.
class InteractiveReads : public Workload {
 public:
  Status Setup(Session& s, unsigned seed) override {
    return LoadSnb(s, seed, /*graph_store=*/true);
  }
  void Prepare(Session& s) override {
    oracle_ = BuildSnbOracle(&s.db, s.persons);
  }
  void Round(Session& s, Stats* st, std::ostream& log) override {
    // Per round: {template, datalog, sql, graph} operation counts. Short
    // reads dominate on the relational engines so the median latency
    // falls in that class; the graph engine's anchored reads set the tail.
    // The aggregation template stays off the graph engine, which counts
    // per KNOWS binding where the others count distinct messages (see
    // CHANGES.md).
    static const std::vector<std::pair<TemplateId, std::array<int, 3>>> kMix =
        {{kSq1, {16, 16, 2}},
         {kCq2, {2, 2, 2}},
         {kFmc, {2, 2, 0}},
         {kF3h, {1, 1, 1}},
         {kReach, {1, 1, 1}}};
    std::vector<std::pair<TemplateId, Engine>> ops;
    for (const auto& [t, counts] : kMix) {
      for (int e = 0; e < 3; ++e) {
        for (int i = 0; i < counts[static_cast<size_t>(e)]; ++i) {
          ops.emplace_back(t, static_cast<Engine>(e));
        }
      }
    }
    std::shuffle(ops.begin(), ops.end(), s.rng);
    const int64_t max_date = raqlet::ldbc::MidCreationDate();
    std::uniform_int_distribution<int64_t> person(1, s.persons);
    for (const auto& [t, engine] : ops) {
      Query q = MakeQuery(s, t, engine, 1);
      int64_t pid = person(s.rng);
      q.params["personId"] = raqlet::dlir::Constant::Number(pid);
      q.params["maxDate"] = raqlet::dlir::Constant::Number(max_date);
      OpHooks hooks;
      hooks.check = InteractiveChecker(oracle_, t, pid, max_date);
      Record(s, q.cls, RunOp(s, q, hooks), st, log);
    }
  }

  const SnbOracle& oracle() const { return oracle_; }

 private:
  SnbOracle oracle_;
};

// recursive_analytics: whole-graph closures and single-source shortest
// paths; Datalog and SQL at 4 threads.
class RecursiveAnalytics : public Workload {
 public:
  Status Setup(Session& s, unsigned seed) override {
    RAQLET_RETURN_IF_ERROR(LoadSnb(s, seed, /*graph_store=*/true));
    // A synthetic graph for the Datalog-text TC: 1000 nodes, out-degree 2.
    raqlet::RelationSchema schema;
    schema.name = "edge";
    schema.columns = {{"x", raqlet::ValueType::kNumber},
                      {"y", raqlet::ValueType::kNumber}};
    RAQLET_ASSIGN_OR_RETURN(Relation * edge,
                            s.db.CreateRelation(std::move(schema)));
    std::mt19937_64 rng(seed * 7919ULL + 17);
    std::uniform_int_distribution<int64_t> node(1, kTcNodes);
    std::set<std::pair<int64_t, int64_t>> seen;
    std::vector<Tuple> rows;
    for (int64_t i = 1; i <= kTcNodes; ++i) {
      for (int k = 0; k < 2; ++k) {
        std::pair<int64_t, int64_t> e{i, node(rng)};
        if (seen.insert(e).second) {
          tc_edges_.push_back(e);
          rows.push_back({Value::Number(e.first), Value::Number(e.second)});
        }
      }
    }
    return edge->InsertBatch(std::move(rows)).status();
  }
  void Prepare(Session& s) override {
    oracle_ = BuildSnbOracle(&s.db, s.persons);
    closure_ = ClosureOf(oracle_.knows, AllNodes(s.persons));
    tc_ = ClosureOf(GraphFromPairs(kTcNodes, tc_edges_), AllNodes(kTcNodes));
  }
  void Round(Session& s, Stats* st, std::ostream& log) override {
    std::uniform_int_distribution<int64_t> person(1, s.persons);
    struct Step {
      TemplateId t;
      Engine engine;
    };
    static const Step kSteps[] = {
        {kClosure, Engine::kDatalog}, {kClosure, Engine::kSql},
        {kClosure, Engine::kGraph},   {kTc, Engine::kDatalog},
        {kTc, Engine::kSql},          {kSp, Engine::kDatalog},
        {kSp, Engine::kGraph}};
    for (const Step& step : kSteps) {
      int threads = step.engine == Engine::kGraph ? 1 : kAnalyticsThreads;
      Query q = MakeQuery(s, step.t, step.engine, threads);
      OpHooks hooks;
      if (step.t == kClosure) {
        hooks.check = [this](const ResultTable& r) {
          return Compare(Canonicalize(r, 2), closure_);
        };
      } else if (step.t == kTc) {
        hooks.check = [this](const ResultTable& r) {
          return Compare(Canonicalize(r, 2), tc_);
        };
      } else {
        int64_t pid = person(s.rng);
        q.params["personId"] = raqlet::dlir::Constant::Number(pid);
        hooks.check = InteractiveChecker(oracle_, kSp, pid, 0);
      }
      Record(s, q.cls, RunOp(s, q, hooks), st, log);
      if (s.tracer != nullptr && threads > 1 && !scaled_.count(q.cls)) {
        MeasureScaling(s, q);
      }
    }
  }
  void TracedExtras(Session& s, std::ostream& log) override {
    if (s.counters.scaling_4t_ms > 0) {
      s.layers.Set("runtime.scaling_4v1",
                   s.counters.scaling_1t_ms / s.counters.scaling_4t_ms);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "runtime.scaling_4v1: %.1f ms at 1 thread / %.1f ms at "
                    "%d threads (closure and TC, datalog and sql)\n",
                    s.counters.scaling_1t_ms, s.counters.scaling_4t_ms,
                    kAnalyticsThreads);
      log << line;
    }
  }

 private:
  static constexpr int64_t kTcNodes = 1000;

  // Engine time of one 4-thread operation against the same operation at
  // 1 thread, outside any operation's timer (once per class, traced run).
  void MeasureScaling(Session& s, Query q) {
    scaled_.insert(q.cls);
    Compiled c;
    CompileUntraced(s, q, &c);
    if (!c.status.ok()) return;
    for (int threads : {kAnalyticsThreads, 1}) {
      q.threads = threads;
      auto t0 = Clock::now();
      { auto r = Execute(s, q, c, nullptr); }
      double ms = MicrosBetween(t0, Clock::now()) / 1000.0;
      (threads == 1 ? s.counters.scaling_1t_ms : s.counters.scaling_4t_ms) +=
          ms;
    }
  }

  SnbOracle oracle_;
  std::vector<std::pair<int64_t, int64_t>> tc_edges_;
  Canonical closure_;
  Canonical tc_;
  std::set<std::string> scaled_;
};

constexpr char kKnows[] = "Person_KNOWS_Person";

struct KnowsEdge {
  int64_t src, dst, id, date;
  Tuple AsTuple() const {
    return {Value::Number(src), Value::Number(dst), Value::Number(id),
            Value::Number(date)};
  }
};

// delta_churn: a maintained view under a seeded stream of delta batches,
// each followed by an anchored read of the updated data.
class DeltaChurn : public Workload {
 public:
  Status Setup(Session& s, unsigned seed) override {
    RAQLET_RETURN_IF_ERROR(LoadSnb(s, seed, /*graph_store=*/false));
    raqlet::RelationSchema schema;
    schema.name = "view_source";
    schema.columns = {{"x", raqlet::ValueType::kNumber}};
    RAQLET_ASSIGN_OR_RETURN(Relation * source,
                            s.db.CreateRelation(std::move(schema)));
    // One person in ten is a source of the maintained reachability.
    std::vector<int64_t> ids = AllNodes(s.persons);
    std::mt19937_64 rng(seed * 104729ULL + 3);
    std::shuffle(ids.begin(), ids.end(), rng);
    sources_.assign(ids.begin(), ids.begin() + s.persons / 10);
    std::sort(sources_.begin(), sources_.end());
    std::vector<Tuple> rows;
    for (int64_t id : sources_) rows.push_back({Value::Number(id)});
    RAQLET_RETURN_IF_ERROR(source->InsertBatch(std::move(rows)).status());

    auto t0 = Clock::now();
    RAQLET_ASSIGN_OR_RETURN(raqlet::dlir::Program program,
                            s.compiler.CompileDatalog(kViewDatalog));
    auto t1 = Clock::now();
    RAQLET_ASSIGN_OR_RETURN(view_, s.compiler.BeginIncremental(program, &s.db));
    auto t2 = Clock::now();
    s.layers.Set("analysis.verify_us", MicrosBetween(t0, t1));
    s.layers.Set("engine.incremental.initialize_s",
                 MicrosBetween(t1, t2) / 1e6);
    // The same rules over renamed derived relations: the from-scratch
    // baseline of the traced run's speedup_vs_recompute.
    std::string scratch = kViewDatalog;
    for (const auto& [from, to] :
         {std::pair<std::string, std::string>{"view_edge", "scratch_edge"},
          {"view_reach", "scratch_reach"}}) {
      for (size_t at; (at = scratch.find(from)) != std::string::npos;) {
        scratch.replace(at, from.size(), to);
      }
    }
    RAQLET_ASSIGN_OR_RETURN(scratch_, s.compiler.CompileDatalog(scratch));
    RAQLET_ASSIGN_OR_RETURN(view_edge_, s.db.GetRelation("view_edge"));
    RAQLET_ASSIGN_OR_RETURN(view_reach_, s.db.GetRelation("view_reach"));
    return Status::OK();
  }

  void Prepare(Session& s) override {
    for (const Tuple& row : RowsOf(&s.db, "Person_KNOWS_Person")) {
      edges_.push_back({row[0].AsNumber(), row[1].AsNumber(),
                        row[2].AsNumber(), row[3].AsNumber()});
      next_id_ = std::max(next_id_, row[2].AsNumber() + 1);
    }
    batch_ = std::max<size_t>(1, edges_.size() / 100);
  }

  void Round(Session& s, Stats* st, std::ostream& log) override {
    // One mixed batch, then nine insert-only batches of 1% of the base. The
    // mixed batch removes as many random edges as the round will insert,
    // plus half a batch it re-adds, so the edge count returns to its base
    // at the end of every round. Inserts re-add removed edges first and
    // make fresh ones only when none are left.
    constexpr int kInserts = 9;
    for (int b = 0; b <= kInserts; ++b) {
      bool mixed = b == 0;
      raqlet::RelationDelta delta;
      delta.relation = kKnows;
      std::vector<size_t> removed;
      if (mixed) removed = PickRemovals(s, kInserts * batch_ + batch_ / 2);
      std::vector<KnowsEdge> adds = TakeAdds(s, mixed ? batch_ / 2 : batch_);
      for (const KnowsEdge& e : adds) delta.adds.push_back(e.AsTuple());
      for (size_t i : removed) delta.removes.push_back(edges_[i].AsTuple());
      raqlet::DeltaBatch batch;
      batch.relations.push_back(std::move(delta));

      int64_t source = sources_[std::uniform_int_distribution<size_t>(
          0, sources_.size() - 1)(s.rng)];
      Query q = MakeQuery(s, kReach, read_engine_++ % 2 == 0
                                         ? Engine::kDatalog
                                         : Engine::kSql,
                          1);
      q.cls = mixed ? "delta.mixed" : "delta.insert";
      q.params["personId"] = raqlet::dlir::Constant::Number(source);

      const size_t size_before = ViewSize();
      const raqlet::engine::IncrementalStats stats_before = view_->stats();
      std::optional<Result<raqlet::AppliedDelta>> applied;
      double apply_ms = 0;
      OpHooks hooks;
      hooks.before = [&](raqlet::obs::QueryMetrics* metrics) {
        auto t0 = Clock::now();
        applied.emplace(s.compiler.ApplyDelta(view_.get(), batch, metrics));
        apply_ms = MicrosBetween(t0, Clock::now()) / 1000.0;
        if (metrics != nullptr && applied->ok()) FoldIncremental(s, *metrics);
        return applied->status();
      };
      hooks.check = [&](const ResultTable& rows) {
        ApplyToCopy(adds, removed);
        std::string why = CheckBatch(**applied, adds.size(), removed.size(),
                                     size_before, stats_before);
        if (why.empty()) why = CheckRead(rows, source);
        // A from-scratch evaluation costs about half a mixed batch, so only
        // the first traced rounds pay for one after their mixed batch and
        // after one insert-only batch.
        if (s.tracer != nullptr && (mixed || b == kInserts / 2) &&
            recompute_samples_ < kRecomputeSamples) {
          ++recompute_samples_;
          TimeRecompute(s, mixed, apply_ms);
        }
        return why;
      };
      OpOutcome o = RunOp(s, q, hooks);
      if (o.failed && applied && applied->ok()) ApplyToCopy(adds, removed);
      if (s.tracer != nullptr && applied && applied->ok()) {
        s.layers.Add(mixed ? "engine.incremental.apply_mixed_ms"
                           : "engine.incremental.apply_insert_ms",
                     apply_ms);
      }
      Record(s, q.cls, o, st, log);
    }
  }

  std::string Finish(Session&) override {
    // The whole maintained view against the closure of our own edge copy.
    std::vector<std::pair<int64_t, int64_t>> rows;
    auto src = view_reach_->Column(0);
    auto dst = view_reach_->Column(1);
    for (size_t i = 0; i < src.size(); ++i) {
      rows.emplace_back(src.at(i).AsNumber(), dst.at(i).AsNumber());
    }
    std::string why = Compare(CanonicalPairs(std::move(rows)),
                              ClosureOf(OwnGraph(), sources_));
    return why.empty() ? "" : "maintained view: " + why;
  }

  void TracedExtras(Session& s, std::ostream& log) override {
    // Mean from-scratch time over the sampled batches against the mean
    // maintenance time of every traced batch (nine inserts to one mixed).
    LayerMetrics& L = s.layers;
    const double apply_ms = L.Mean("engine.incremental.apply_ms");
    const double scratch_ms = L.Mean("engine.incremental.recompute_ms");
    if (apply_ms <= 0 || L.Count("engine.incremental.recompute_ms") == 0) {
      return;
    }
    L.Set("engine.incremental.speedup_vs_recompute", scratch_ms / apply_ms);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "engine.incremental.speedup_vs_recompute: %.2f ms "
                  "from-scratch (mean of %zu) / %.2f ms maintenance (mean of "
                  "%zu batches)\n",
                  scratch_ms, L.Count("engine.incremental.recompute_ms"),
                  apply_ms, L.Count("engine.incremental.apply_ms"));
    log << line;
  }

  // Checker entry points, also used by the self-test.
  std::string CheckBatch(const raqlet::AppliedDelta& applied,
                         size_t adds, size_t removes, size_t size_before,
                         const raqlet::engine::IncrementalStats& before) const {
    const raqlet::engine::IncrementalStats& after = view_->stats();
    return CheckConservation(applied, adds, removes, size_before, ViewSize(),
                             after.tuples_inserted - before.tuples_inserted,
                             after.tuples_deleted - before.tuples_deleted);
  }
  // The conserved quantity: the derived relations grow by exactly the
  // tuples the view reports added and shrink by those it reports removed,
  // and the base relation changed by exactly the batch.
  static std::string CheckConservation(const raqlet::AppliedDelta& applied,
                                       size_t adds, size_t removes,
                                       size_t size_before, size_t size_after,
                                       size_t inserted, size_t deleted) {
    size_t base_added = 0, base_removed = 0;
    size_t derived_added = 0, derived_removed = 0;
    for (const raqlet::AppliedRelationDelta& r : applied.relations) {
      bool base = r.relation == kKnows;
      (base ? base_added : derived_added) += r.added.size();
      (base ? base_removed : derived_removed) += r.removed.size();
    }
    std::ostringstream why;
    if (base_added != adds || base_removed != removes) {
      why << "base delta applied +" << base_added << "/-" << base_removed
          << ", expected +" << adds << "/-" << removes;
    } else if (derived_added != inserted || derived_removed != deleted) {
      why << "view reports +" << derived_added << "/-" << derived_removed
          << " but its stats moved +" << inserted << "/-" << deleted;
    } else if (size_after + derived_removed != size_before + derived_added) {
      why << "view size " << size_after << " != " << size_before << " + "
          << derived_added << " - " << derived_removed;
    }
    return why.str();
  }
  std::string CheckRead(const ResultTable& rows, int64_t source) const {
    std::string why = CheckReadAgainstCopy(rows, source);
    return why.empty() ? CheckReadAgainstView(rows, source) : why;
  }
  std::string CheckReadAgainstCopy(const ResultTable& rows,
                                   int64_t source) const {
    std::string why = Compare(Canonicalize(rows, 1),
                              CanonicalIds(ReachableFrom(OwnGraph(), source)));
    return why.empty() ? "" : "read vs own edge copy: " + why;
  }
  std::string CheckReadAgainstView(const ResultTable& rows,
                                   int64_t source) const {
    std::string why =
        Compare(Canonicalize(rows, 1), CanonicalIds(ViewRowsFor(source)));
    return why.empty() ? "" : "read vs maintained view: " + why;
  }

  size_t ViewSize() const { return view_edge_->size() + view_reach_->size(); }
  const std::vector<int64_t>& sources() const { return sources_; }

 private:
  // Edges to insert: previously removed ones first, then fresh edges
  // whose endpoints are drawn from existing edges (so the degree
  // distribution stays close to the generator's).
  std::vector<KnowsEdge> TakeAdds(Session& s, size_t n) {
    std::vector<KnowsEdge> out;
    while (out.size() < n && !pool_.empty()) {
      out.push_back(pool_.back());
      pool_.pop_back();
    }
    std::uniform_int_distribution<size_t> pick(0, edges_.size() - 1);
    while (out.size() < n) {
      int64_t a = edges_[pick(s.rng)].src;
      int64_t b = edges_[pick(s.rng)].dst;
      if (a == b) continue;
      out.push_back({a, b, next_id_++,
                     20200101000000 + static_cast<int64_t>(s.rng() % 1000000)});
    }
    return out;
  }
  std::vector<size_t> PickRemovals(Session& s, size_t n) {
    std::vector<size_t> idx(edges_.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (size_t i = 0; i < n && i < idx.size(); ++i) {
      std::uniform_int_distribution<size_t> pick(i, idx.size() - 1);
      std::swap(idx[i], idx[pick(s.rng)]);
    }
    idx.resize(std::min(n, idx.size()));
    return idx;
  }
  void ApplyToCopy(const std::vector<KnowsEdge>& adds,
                   std::vector<size_t> removed) {
    std::sort(removed.rbegin(), removed.rend());
    for (size_t i : removed) {
      pool_.push_back(edges_[i]);
      edges_[i] = edges_.back();
      edges_.pop_back();
    }
    edges_.insert(edges_.end(), adds.begin(), adds.end());
  }
  Graph OwnGraph() const {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (const KnowsEdge& e : edges_) pairs.emplace_back(e.src, e.dst);
    int64_t nodes = 0;
    for (const auto& [a, b] : pairs) nodes = std::max({nodes, a, b});
    for (int64_t v : sources_) nodes = std::max(nodes, v);
    return GraphFromPairs(nodes, pairs);
  }
  std::vector<int64_t> ViewRowsFor(int64_t source) const {
    std::vector<int64_t> out;
    auto src = view_reach_->Column(0);
    auto dst = view_reach_->Column(1);
    for (size_t i = 0; i < src.size(); ++i) {
      if (src.at(i).AsNumber() == source) out.push_back(dst.at(i).AsNumber());
    }
    return out;
  }
  void FoldIncremental(Session& s, const raqlet::obs::QueryMetrics& m) {
    const raqlet::obs::IncrementalMetrics& inc = m.incremental;
    s.layers.Add("engine.incremental.overdeleted",
                 static_cast<double>(inc.overdeleted));
    s.layers.Add("engine.incremental.rederived",
                 static_cast<double>(inc.rederived));
    s.layers.Add("engine.incremental.dred_bailouts",
                 static_cast<double>(inc.dred_bailouts));
    s.layers.Add("engine.incremental.recomputed_sccs",
                 static_cast<double>(inc.recomputed_sccs));
  }
  // From-scratch evaluation of the same rules on the post-batch data.
  void TimeRecompute(Session& s, bool mixed, double apply_ms) {
    auto t0 = Clock::now();
    { auto r = s.compiler.RunOnDatalog(scratch_, &s.db); }
    double ms = MicrosBetween(t0, Clock::now()) / 1000.0;
    s.layers.Add("engine.incremental.recompute_ms", ms);
    s.layers.Add(mixed ? "engine.incremental.speedup_vs_recompute.mixed"
                       : "engine.incremental.speedup_vs_recompute.insert",
                 apply_ms > 0 ? ms / apply_ms : 0);
  }

  std::unique_ptr<raqlet::engine::IncrementalView> view_;
  raqlet::dlir::Program scratch_;
  Relation* view_edge_ = nullptr;
  Relation* view_reach_ = nullptr;
  std::vector<int64_t> sources_;
  std::vector<KnowsEdge> edges_;  // the benchmark's own copy of KNOWS
  std::vector<KnowsEdge> pool_;   // removed edges, re-added by inserts
  int64_t next_id_ = 1;
  size_t batch_ = 1;
  size_t read_engine_ = 0;
  static constexpr int kRecomputeSamples = 16;
  int recompute_samples_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "interactive_reads") return std::make_unique<InteractiveReads>();
  if (name == "recursive_analytics") {
    return std::make_unique<RecursiveAnalytics>();
  }
  if (name == "delta_churn") return std::make_unique<DeltaChurn>();
  return nullptr;
}

void InitPipeline(Session& s) {
  auto pm = kOptLevel >= 2 ? raqlet::opt::PassManager::Aggressive()
                           : raqlet::opt::PassManager::Standard();
  for (const std::string& name : pm.PassNames()) {
    auto pass = raqlet::opt::FindPass(name);
    if (!pass.ok()) continue;
    s.pipeline.push_back(*pass);
    s.pass_spans.push_back("opt." + name);
  }
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

// The per-layer metrics every workload measures (the JSON of a traced run).
// Workload-specific ones are printed in the table only.
const std::vector<std::pair<std::string, std::string>>& ReportedLayers() {
  static const auto& layers =
      *new std::vector<std::pair<std::string, std::string>>{
          {"cypher.parse_us", "us"},
          {"pgir.lower_us", "us"},
          {"pgir.translate_us", "us"},
          {"dlir.rules_translated", "count"},
          {"dlir.rules_optimized", "count"},
          {"opt.optimize_us", "us"},
          {"opt.inline_us", "us"},
          {"opt.pushdown_us", "us"},
          {"opt.self-join-elim_us", "us"},
          {"opt.dedup-atoms_us", "us"},
          {"opt.dre_us", "us"},
          {"opt.magic-sets_us", "us"},
          {"opt.linearize_us", "us"},
          {"opt.magic-sets.applied", "ratio"},
          {"sqir.translate_us", "us"},
          {"engine.datalog.execute_ms", "ms"},
          {"engine.sql.execute_ms", "ms"},
          {"engine.datalog.tuples_considered", "count"},
          {"engine.datalog.tuples_inserted", "count"},
          {"engine.datalog.insert_ratio", "ratio"},
          {"engine.datalog.join_ms", "ms"},
          {"engine.datalog.merge_ms", "ms"},
          {"engine.sql.dedup_hit_rate", "ratio"},
          {"engine.sql.rows_matched", "count"},
          {"engine.result_release_ms", "ms"},
          {"compile.release_us", "us"},
          {"storage.bytes_per_tuple", "B"},
          {"ldbc.generate_s", "s"},
          {"obs.trace_overhead_ratio", "ratio"},
          {"obs.unaccounted_share", "ratio"},
      };
  return layers;
}

void PrintClasses(const Session& s, std::ostream& log) {
  char line[200];
  log << "per-class operations (latency in ms)\n";
  std::snprintf(line, sizeof(line), "  %-16s %6s %10s %10s %10s %10s %11s\n",
                "class", "ops", "p10", "p50", "p90", "max", "compile_us");
  log << line;
  for (const auto& [name, c] : s.classes) {
    const std::vector<double>& v = c.latency_ms;
    std::snprintf(line, sizeof(line),
                  "  %-16s %6zu %10.3f %10.3f %10.3f %10.3f %11.1f\n",
                  name.c_str(), v.size(), Percentile(v, 0.1),
                  Percentile(v, 0.5), Percentile(v, 0.9), Percentile(v, 1.0),
                  c.compile_us / static_cast<double>(v.size()));
    log << line;
  }
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return MakeWorkload(name) != nullptr;
}

bool RunWorkload(const RunConfig& config, RunOutput* out, std::ostream& log) {
  std::unique_ptr<Workload> w = MakeWorkload(config.workload);
  if (!w) return false;
  Session s;
  s.rng.seed(config.seed);
  InitPipeline(s);
  Status setup = w->Setup(s, config.seed);
  if (!setup.ok()) {
    log << "set-up failed: " << setup.ToString() << "\n";
    return false;
  }
  const double setup_s =
      MicrosBetween(config.process_start, Clock::now()) / 1e6;
  w->Prepare(s);

  // Untraced run: every round is measured. Traced run: rounds alternate
  // untraced / traced, so the pair gives the tracing overhead.
  Tracer tracer(config.process_start);
  Stats untraced, traced;
  for (int round = 0;; ++round) {
    bool traced_round = config.trace && round % 2 == 1;
    s.tracer = traced_round ? &tracer : nullptr;
    Stats& st = traced_round ? traced : untraced;
    const double busy_before = st.busy_s;
    const int64_t done_before = st.attempted - st.failed;
    w->Round(s, &st, log);
    s.tracer = nullptr;
    if (st.busy_s > busy_before) {
      st.round_rates.push_back(
          static_cast<double>(st.attempted - st.failed - done_before) /
          (st.busy_s - busy_before));
    }
    const Stats& measured = config.trace ? traced : untraced;
    if (measured.busy_s >= config.seconds && (!config.trace || traced_round)) {
      break;
    }
  }
  std::string final_check = w->Finish(s);
  if (!final_check.empty()) log << "WRONG " << final_check << "\n";

  out->attempted = untraced.attempted + traced.attempted;
  out->failed = untraced.failed + traced.failed;
  out->correct =
      untraced.wrong == 0 && traced.wrong == 0 && final_check.empty();
  PrintClasses(s, log);

  if (!config.trace) {
    const Stats& st = untraced;
    const double completed = static_cast<double>(st.attempted - st.failed);
    out->metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", Percentile(st.round_rates, 0.5), "ops/s"},
        {"latency_p50_ms", Percentile(st.latency_ms, 0.50), "ms"},
        {"latency_p99_ms", Percentile(st.latency_ms, 0.99), "ms"},
        {"compile_p50_us", Percentile(st.compile_us, 0.50), "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%lld ops (%lld failed, %lld wrong) in %zu rounds, %.2f s "
                  "busy, %.3f ops/s overall\n",
                  static_cast<long long>(st.attempted),
                  static_cast<long long>(st.failed),
                  static_cast<long long>(st.wrong), st.round_rates.size(),
                  st.busy_s, st.busy_s > 0 ? completed / st.busy_s : 0);
    log << line;
    return true;
  }

  // Traced run: per-layer metrics.
  Accounting acc = FoldSpans(tracer, kCheckSpan, &s.layers, log);
  w->TracedExtras(s, log);
  LayerMetrics& L = s.layers;
  const EngineCounters& c = s.counters;
  if (c.considered > 0) {
    L.Set("engine.datalog.insert_ratio", c.inserted / c.considered);
  }
  if (c.dedup_attempts > 0) {
    L.Set("engine.sql.dedup_hit_rate",
          1.0 - c.dedup_inserted / c.dedup_attempts);
  }
  if (c.memory_rows > 0) {
    L.Set("storage.bytes_per_tuple", c.memory_bytes / c.memory_rows);
  }
  auto rate = [](const Stats& st) { return Percentile(st.round_rates, 0.5); };
  if (rate(untraced) > 0) {
    L.Set("obs.trace_overhead_ratio", rate(traced) / rate(untraced));
  }
  L.Set("obs.unaccounted_share",
        acc.op_wall_ms > 0 ? acc.unaccounted_ms / acc.op_wall_ms : 0);

  log << "per-layer metrics (mean per call or per operation)\n";
  for (const std::string& name : L.Names()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-52s %16.4f  (n=%zu)\n",
                  name.c_str(), L.Mean(name), L.Count(name));
    log << line;
  }
  for (const auto& [name, unit] : ReportedLayers()) {
    out->metrics.push_back({name, L.Mean(name), unit});
  }

  // Spans and layer values for later inspection.
  if (!config.out_dir.empty()) {
    std::string base = config.out_dir + "/" + config.workload + "-seed" +
                       std::to_string(config.seed);
    std::ofstream trace_file(base + ".trace.json");
    tracer.WriteChromeTrace(trace_file);
    std::ofstream layers_file(base + ".layers.json");
    layers_file << "{";
    bool first = true;
    for (const std::string& name : L.Names()) {
      char item[160];
      std::snprintf(item, sizeof(item), "%s\"%s\": %.17g", first ? "" : ", ",
                    name.c_str(), L.Mean(name));
      layers_file << item;
      first = false;
    }
    layers_file << "}\n";
    log << "wrote " << base << ".trace.json and " << base << ".layers.json\n";
  }
  return true;
}

// ---------------------------------------------------------------------------
// Self-test: every checker must reject a result with one row dropped, one
// value perturbed, and one extra row.
// ---------------------------------------------------------------------------

namespace {

std::vector<std::pair<std::string, ResultTable>> Corruptions(
    const ResultTable& good) {
  std::vector<std::pair<std::string, ResultTable>> out;
  ResultTable dropped = good;
  dropped.rows.pop_back();
  out.emplace_back("row dropped", std::move(dropped));
  ResultTable perturbed = good;
  Value& last = perturbed.rows[0].back();
  last = Value::FromRaw(last.kind(), last.RawBits() + 1);
  out.emplace_back("value perturbed", std::move(perturbed));
  ResultTable extra = good;
  Tuple row = good.rows[0];
  row[0] = Value::FromRaw(row[0].kind(), row[0].RawBits() + 100000);
  extra.rows.push_back(std::move(row));
  out.emplace_back("extra row", std::move(extra));
  return out;
}

// Runs `q` for real, requires its checker to accept the rows, then
// requires it to reject every corruption. Returns the number of misses.
int SelfTestQuery(Session& s, const Query& q, const Checker& check,
                  std::ostream& log) {
  Compiled c;
  CompileUntraced(s, q, &c);
  if (!c.status.ok()) {
    log << "  " << q.cls << ": compile failed: " << c.status.ToString()
        << "\n";
    return 1;
  }
  Result<ResultTable> rows = Execute(s, q, c, nullptr);
  if (!rows.ok() || rows->rows.empty()) {
    log << "  " << q.cls << ": no rows to corrupt\n";
    return 1;
  }
  int misses = 0;
  std::string why = check(*rows);
  log << "  " << q.cls << " (" << rows->rows.size() << " rows) real result: "
      << (why.empty() ? "accepted" : "REJECTED: " + why) << "\n";
  if (!why.empty()) ++misses;
  for (const auto& [what, bad] : Corruptions(*rows)) {
    std::string reason = check(bad);
    log << "    " << what << ": "
        << (reason.empty() ? "ACCEPTED (checker cannot fail)"
                           : "rejected (" + reason + ")")
        << "\n";
    if (reason.empty()) ++misses;
  }
  return misses;
}

}  // namespace

int RunSelfTest(std::ostream& log) {
  int misses = 0;
  const unsigned seed = 1;
  const int64_t max_date = raqlet::ldbc::MidCreationDate();
  {
    log << "interactive_reads checkers\n";
    Session s;
    InitPipeline(s);
    InteractiveReads w;
    if (!w.Setup(s, seed).ok()) return 1;
    w.Prepare(s);
    raqlet::ldbc::GeneratorOptions gen;
    gen.scale_factor = kScaleFactor;
    gen.seed = seed;
    const int64_t pid = raqlet::ldbc::SamplePersonId(gen);
    for (TemplateId t : {kSq1, kCq2, kFmc, kF3h, kReach}) {
      Query q = MakeQuery(s, t, Engine::kDatalog, 1);
      q.params["personId"] = raqlet::dlir::Constant::Number(pid);
      q.params["maxDate"] = raqlet::dlir::Constant::Number(max_date);
      misses += SelfTestQuery(
          s, q, InteractiveChecker(w.oracle(), t, pid, max_date), log);
    }
  }
  {
    log << "recursive_analytics checkers\n";
    Session s;
    InitPipeline(s);
    RecursiveAnalytics w;
    if (!w.Setup(s, seed).ok()) return 1;
    SnbOracle oracle = BuildSnbOracle(&s.db, s.persons);
    Query sp = MakeQuery(s, kSp, Engine::kGraph, 1);
    sp.params["personId"] = raqlet::dlir::Constant::Number(1);
    misses +=
        SelfTestQuery(s, sp, InteractiveChecker(oracle, kSp, 1, 0), log);
    Query closure = MakeQuery(s, kClosure, Engine::kGraph, 1);
    Canonical want = ClosureOf(oracle.knows, AllNodes(s.persons));
    misses += SelfTestQuery(s, closure, Expect(want), log);
  }
  {
    log << "delta_churn checkers\n";
    Session s;
    InitPipeline(s);
    DeltaChurn w;
    if (!w.Setup(s, seed).ok()) return 1;
    w.Prepare(s);
    int64_t source = w.sources().front();
    Query read = MakeQuery(s, kReach, Engine::kDatalog, 1);
    read.params["personId"] = raqlet::dlir::Constant::Number(source);
    misses += SelfTestQuery(s, read,
                            [&w, source](const ResultTable& r) {
                              return w.CheckReadAgainstCopy(r, source);
                            },
                            log);
    misses += SelfTestQuery(s, read,
                            [&w, source](const ResultTable& r) {
                              return w.CheckReadAgainstView(r, source);
                            },
                            log);
    // The conserved quantity: a view whose size moved by one more or one
    // less than the reported inserts and deletes must be rejected.
    struct Case {
      const char* what;
      size_t adds, removes, after, inserted, deleted;
      bool consistent;
    };
    // A batch of +3/-2 base edges reported as +10/-5 derived tuples on a
    // view of 100 tuples.
    const Case cases[] = {{"consistent batch", 3, 2, 105, 10, 5, true},
                          {"one derived tuple lost", 3, 2, 104, 10, 5, false},
                          {"one derived tuple extra", 3, 2, 106, 10, 5, false},
                          {"one base insert lost", 4, 2, 105, 10, 5, false},
                          {"stats disagree", 3, 2, 105, 11, 5, false}};
    raqlet::AppliedDelta applied;
    applied.relations.resize(2);
    applied.relations[0].relation = kKnows;
    applied.relations[0].added.resize(3);
    applied.relations[0].removed.resize(2);
    applied.relations[1].relation = "view_reach";
    applied.relations[1].added.resize(10);
    applied.relations[1].removed.resize(5);
    for (const Case& c : cases) {
      std::string why = DeltaChurn::CheckConservation(
          applied, c.adds, c.removes, 100, c.after, c.inserted, c.deleted);
      log << "  conservation, " << c.what << ": "
          << (why.empty() ? "accepted" : "rejected (" + why + ")") << "\n";
      if (why.empty() != c.consistent) ++misses;
    }
  }
  log << (misses == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return misses;
}

}  // namespace bench

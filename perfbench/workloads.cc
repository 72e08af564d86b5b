#include "workloads.h"

#include <map>
#include <memory>
#include <utility>

#include "catalog/table.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using tmdb::Database;
using tmdb::Status;

/// Derives an independent generator seed for table set `salt`.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Several generators name their tables X and Y. Loads one into a scratch
/// database and registers copies in `db` under new names.
template <typename Loader>
Status LoadRenamed(Database* db, Loader load,
                   const std::map<std::string, std::string>& renames) {
  Database scratch;
  TMDB_RETURN_IF_ERROR(load(&scratch));
  for (const auto& [from, to] : renames) {
    TMDB_ASSIGN_OR_RETURN(std::shared_ptr<tmdb::Table> source,
                          scratch.catalog()->GetTable(from));
    TMDB_ASSIGN_OR_RETURN(std::shared_ptr<tmdb::Table> copy,
                          db->CreateTable(to, source->schema()));
    TMDB_RETURN_IF_ERROR(copy->InsertAll(source->rows()));
  }
  return Status::OK();
}

// The Section 2 COUNT-bug shape: a Table 1 nest join feeding count.
constexpr char kCountEq[] =
    "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
    "WHERE x.c = y.c)";
// Table 2 membership: a semijoin (IN) and an antijoin (NOT IN) with a
// residual predicate beside the equi-key.
constexpr char kMember[] =
    "SELECT x.a FROM R x WHERE x.c IN (SELECT y.c FROM S y "
    "WHERE y.d > x.b)";
constexpr char kNotMember[] =
    "SELECT x.a FROM R x WHERE x.c NOT IN (SELECT y.c FROM S y "
    "WHERE y.d > x.b)";
// Table 2 set comparison and quantifiers over the SUBSETEQ-bug schema.
constexpr char kSubsetEq[] =
    "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y "
    "WHERE x.b = y.b)";
constexpr char kExists[] =
    "SELECT x FROM X x WHERE EXISTS v IN (SELECT y.a FROM Y y "
    "WHERE x.b = y.b) (v IN x.a)";
constexpr char kForall[] =
    "SELECT x FROM X x WHERE FORALL w IN x.a (w IN (SELECT y.a FROM Y y "
    "WHERE x.b = y.b))";
// Section 3 company queries Q1 (WHERE-clause nesting through a set-valued
// attribute) and Q2 (SELECT-clause nesting, a nest join).
constexpr char kCompanyQ1[] =
    "SELECT d.dname FROM DEPT d WHERE EXISTS e IN (SELECT m FROM EMP m "
    "WHERE m.name IN (SELECT n FROM d.emps n)) "
    "(e.address.city = d.address.city)";
constexpr char kCompanyQ2[] =
    "SELECT (dname = d.dname, emps = SELECT e.name FROM EMP e "
    "WHERE e.address.city = d.address.city) FROM DEPT d";
// Section 8: the three-block linear query.
constexpr char kSection8[] =
    "SELECT x FROM X8 x WHERE x.a SUBSETEQ (SELECT y.a FROM Y8 y "
    "WHERE x.b = y.b AND y.c SUBSETEQ (SELECT z.c FROM Z8 z "
    "WHERE y.d = z.d))";
// Table 1 nest join with ~16 matches per key (group-heavy).
constexpr char kGroupCount[] =
    "SELECT (a = x.a, n = count(SELECT y.c FROM GY y WHERE x.b = y.b)) "
    "FROM GX x";
// The high-hit CorrelatedConfig pole: 10 distinct correlation values, so
// auto picks memoized naive.
constexpr char kHotCorrelated[] =
    "SELECT (a = o.a, n = count(SELECT i.v FROM I i WHERE o.k = i.k)) "
    "FROM O o";
// The COUNT-bug shape over the extra-sparse key domain.
constexpr char kCountEqSparse[] =
    "SELECT x FROM R2 x WHERE x.b = count(SELECT y.d FROM S2 y "
    "WHERE x.c = y.c)";

// ----------------------------------------------------------- interactive

Status LoadInteractive(Database* db, uint64_t seed) {
  tmdb::CountBugConfig count_bug;
  count_bug.num_r = 150;
  count_bug.num_s = 300;
  count_bug.seed = SubSeed(seed, 1);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCountBugTables(db, count_bug));
  tmdb::SubsetBugConfig subset_bug;
  subset_bug.num_x = 150;
  subset_bug.num_y = 300;
  subset_bug.seed = SubSeed(seed, 2);
  TMDB_RETURN_IF_ERROR(tmdb::LoadSubsetBugTables(db, subset_bug));
  tmdb::CompanyConfig company;  // 10 departments, 100 employees
  company.seed = SubSeed(seed, 3);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCompanyTables(db, company));
  tmdb::Section8Config section8;  // 50 / 100 / 200 rows
  section8.seed = SubSeed(seed, 4);
  return LoadRenamed(
      db, [&](Database* d) { return tmdb::LoadSection8Tables(d, section8); },
      {{"X", "X8"}, {"Y", "Y8"}, {"Z", "Z8"}});
}

WorkloadSpec MakeInteractive() {
  WorkloadSpec w;
  w.name = "interactive";
  w.clients = 4;
  w.num_threads = 1;
  w.write_every = 20;
  w.load = LoadInteractive;
  auto add = [&w](std::string name, const char* text, std::string strategy,
                  bool reads_s = false) {
    QuerySpec q;
    q.name = std::move(name);
    q.text = text;
    q.strategy = std::move(strategy);
    q.reads_write_table = reads_s;
    w.queries.push_back(std::move(q));
  };
  add("count_eq", kCountEq, "nestjoin", true);
  add("member", kMember, "nestjoin", true);
  add("subseteq", kSubsetEq, "nestjoin");
  add("exists", kExists, "nestjoin");
  add("forall", kForall, "nestjoin");
  add("company_q1", kCompanyQ1, "nestjoin");
  add("company_q2", kCompanyQ2, "nestjoin");
  add("section8", kSection8, "nestjoin");
  add("count_eq_auto", kCountEq, "auto", true);
  add("subseteq_auto", kSubsetEq, "auto");
  add("section8_auto", kSection8, "auto");
  return w;
}

// -------------------------------------------------------------- analytic

Status LoadAnalytic(Database* db, uint64_t seed) {
  tmdb::CountBugConfig count_bug;
  count_bug.num_r = 10000;
  count_bug.num_s = 20000;
  count_bug.seed = SubSeed(seed, 11);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCountBugTables(db, count_bug));
  tmdb::ScaleConfig groups;
  groups.num_x = 10000;
  groups.num_y = 20000;
  groups.b_domain = 1250;  // ~16 Y rows per key
  groups.a_domain = 1 << 30;
  groups.seed = SubSeed(seed, 12);
  TMDB_RETURN_IF_ERROR(LoadRenamed(
      db, [&](Database* d) { return tmdb::LoadScaleTables(d, groups); },
      {{"X", "GX"}, {"Y", "GY"}}));
  tmdb::Section8Config section8;
  section8.num_x = 2500;
  section8.num_y = 5000;
  section8.num_z = 10000;
  section8.b_domain = 500;
  section8.d_domain = 1000;
  section8.seed = SubSeed(seed, 13);
  TMDB_RETURN_IF_ERROR(LoadRenamed(
      db, [&](Database* d) { return tmdb::LoadSection8Tables(d, section8); },
      {{"X", "X8"}, {"Y", "Y8"}, {"Z", "Z8"}}));
  tmdb::CorrelatedConfig correlated;
  correlated.num_outer = 10000;
  correlated.num_inner = 1000;
  correlated.correlation_scale = 10;
  correlated.seed = SubSeed(seed, 14);
  return tmdb::LoadCorrelatedTables(db, correlated);
}

WorkloadSpec MakeAnalytic() {
  WorkloadSpec w;
  w.name = "analytic";
  w.clients = 1;
  w.num_threads = 4;
  w.load = LoadAnalytic;
  auto add = [&w](std::string name, const char* text, std::string strategy,
                  std::vector<std::string> reference) {
    QuerySpec q;
    q.name = std::move(name);
    q.text = text;
    q.strategy = std::move(strategy);
    q.reference = std::move(reference);
    w.queries.push_back(std::move(q));
  };
  add("t1_count", kCountEq, "nestjoin", {"nestjoin", "outerjoin"});
  // Weight 2 keeps the median inside one latency class rather than on the
  // edge between two.
  w.queries.back().weight = 2;
  add("t1_group", kGroupCount, "nestjoin", {"nestjoin", "nestjoin+merge"});
  add("t2_semi", kMember, "nestjoin", {"nestjoin", "nestjoin+merge"});
  add("t2_anti", kNotMember, "nestjoin", {"nestjoin", "nestjoin+merge"});
  add("section8", kSection8, "nestjoin", {"nestjoin", "nestjoin+merge"});
  add("auto_hot", kHotCorrelated, "auto", {"naive"});
  return w;
}

// ----------------------------------------------------------------- spill

Status LoadSpill(Database* db, uint64_t seed) {
  // Sparse key domains (as in bench_spill): the build side dwarfs the
  // join output, so a budget window exists where the build must spill but
  // the result still fits.
  tmdb::CountBugConfig wide;
  wide.num_r = 100;
  wide.num_s = 24000;
  wide.match_fraction = 0.5;
  wide.domain_scale = 64;
  wide.seed = SubSeed(seed, 21);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCountBugTables(db, wide));
  tmdb::CountBugConfig sparse = wide;
  sparse.domain_scale = 256;
  sparse.seed = SubSeed(seed, 22);
  return LoadRenamed(
      db, [&](Database* d) { return tmdb::LoadCountBugTables(d, sparse); },
      {{"R", "R2"}, {"S", "S2"}});
}

WorkloadSpec MakeSpill() {
  WorkloadSpec w;
  w.name = "spill";
  // One client: the engine's memory accounting is process-wide, so two
  // concurrent budgeted queries count each other's live values and spill
  // past the recursion limit (see README.md, "Known engine defects").
  w.clients = 1;
  w.num_threads = 1;
  w.load = LoadSpill;
  auto add = [&w](std::string name, const char* text, std::string strategy,
                  uint64_t budget_kib) {
    QuerySpec q;
    q.name = std::move(name);
    q.text = text;
    q.strategy = std::move(strategy);
    q.memory_budget_bytes = budget_kib << 10;
    q.enable_spill = true;
    w.queries.push_back(std::move(q));
  };
  // Budgets that need few partition files: creating and deleting files
  // ties latency to the shared disk, which made deeper spills unsteady.
  // Grace hash nest join, one partitioning level (8 files).
  add("grace", kCountEq, "nestjoin", 2048);
  w.queries.back().weight = 3;  // keeps the median inside one class
  // Outerjoin + nu*: the grouping state spills, two levels deep.
  add("nustar", kCountEqSparse, "outerjoin", 2048);
  add("grace_auto", kCountEq, "auto", 2048);
  return w;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const auto* workloads = new std::vector<WorkloadSpec>{
      MakeInteractive(), MakeAnalytic(), MakeSpill()};
  for (const WorkloadSpec& w : *workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string WriteStatement(uint64_t key) {
  // R.c never exceeds the generator's key domain, so a c this large
  // matches no R row: the reads' results stay fixed.
  return "INSERT INTO S VALUES (c = " + std::to_string(1000000000 + key) +
         ", d = " + std::to_string(key) + ")";
}

std::string WriteAcknowledgement() { return "inserted 1 row(s) into S"; }

}  // namespace perfbench

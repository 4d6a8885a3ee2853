package repro.engine

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.Model._
import repro.core.NaiveIso
import repro.graphgen.Datasets
import repro.workloads.Workloads

/** Tests for the SQL pattern-match engine, cross-checked against the
  * brute-force matcher and the DuckDB oracle.
  */
class PatternMatcherSpec extends SparkSpec {
  import QueryGraph._

  private def edgesDf(es: Seq[LEdge]): DataFrame = {
    import spark.implicits._
    es.map(e => (e.u, e.uLabel, e.v, e.vLabel)).toDF("u", "ul", "v", "vl")
  }

  /** Match rows of q as edge sets, keeping duplicates. */
  private def matchSets(df: DataFrame, q: QueryGraph): Vector[Set[(VId, VId)]] =
    PatternMatcher.matches(df, q).collect().toVector.map { r =>
      q.edges.indices.map { i =>
        (r.getLong(r.fieldIndex(s"x$i")), r.getLong(r.fieldIndex(s"y$i")))
      }.toSet
    }

  /** The matches of q over es equal the brute-force matches, one row each. */
  private def assertBruteForce(es: Seq[LEdge], q: QueryGraph, what: String): Unit = {
    val got      = matchSets(edgesDf(es), q)
    val expected = NaiveIso.matches(q, SubGraph(es.toSet))
    assert(got.size == expected.size, s"$what $q: ${got.size} rows, ${expected.size} matches")
    assert(got.toSet == expected.toSet, s"$what $q")
  }

  /** The paper's Fig. 1-style example fragment: vertices 1,3,6 labelled a;
    * 2 labelled b; plus a small b-side tail.
    */
  private val fig1 = Vector(
    LEdge(1, "a", 2, "b"), LEdge(2, "b", 3, "a"), LEdge(6, "a", 2, "b"),
    LEdge(3, "a", 4, "b"), LEdge(4, "b", 5, "a"),
  )

  test("single-edge patterns match both directions of an edge, once") {
    assert(PatternMatcher.matches(edgesDf(fig1), singleEdge("b", "a")).count() == fig1.size)
    // Both directions of an a-a edge fit a-a; symmetry breaking keeps one.
    val aa = Vector(LEdge(1, "a", 2, "a"), LEdge(2, "a", 3, "a"))
    assertBruteForce(aa, singleEdge("a", "a"), "a-a")
    assert(PatternMatcher.matches(edgesDf(aa), singleEdge("a", "a")).count() == 2)
  }

  test("single-edge pattern: each a-b edge matches once") {
    assertBruteForce(fig1, singleEdge("a", "b"), "fig1")
    assert(PatternMatcher.matches(edgesDf(fig1), singleEdge("a", "b")).count() == fig1.size)
  }

  test("q2-style a-b-a path matches the expected sub-graphs") {
    val got = matchSets(edgesDf(fig1), path("a", "b", "a")).toSet
    val expected = NaiveIso.matches(path("a", "b", "a"), SubGraph(fig1.toSet)).toSet
    assert(got == expected)
    assert(got.contains(Set((1L, 2L), (2L, 3L))), "the paper's q2 match {(1,2),(2,3)}")
    assert(got.contains(Set((2L, 6L), (2L, 3L))), "the paper's q2 match {(6,2),(2,3)}")
  }

  test("automorphism dedup: b-a-b counts each sub-graph once") {
    val es = Vector(LEdge(1, "b", 2, "a"), LEdge(2, "a", 3, "b"))
    assert(NaiveIso.automorphisms(path("b", "a", "b")).size == 2)
    assert(NaiveIso.embeddings(path("b", "a", "b"), SubGraph(es.toSet)).size == 2)
    assert(PatternMatcher.matches(edgesDf(es), path("b", "a", "b")).count() == 1)
  }

  test("one row per automorphism orbit of embeddings") {
    val g = SubGraph(fig1.toSet)
    Vector(path("a", "b", "a"), path("b", "a", "b"), singleEdge("a", "b"),
           path("a", "b", "a", "b")).foreach { q =>
      val orbits = NaiveIso.embeddings(q, g).size / NaiveIso.automorphisms(q).size
      assert(PatternMatcher.matches(edgesDf(fig1), q).count() == orbits, s"pattern $q")
    }
  }

  test("injectivity: no vertex is used twice in one match") {
    val es = Vector(LEdge(1, "a", 2, "b"))
    assert(PatternMatcher.matches(edgesDf(es), path("a", "b", "a")).count() == 0)
  }

  test("labels filter matches") {
    assert(PatternMatcher.matches(edgesDf(fig1), singleEdge("a", "c")).count() == 0)
  }

  test("spark matches equal brute force on every workload pattern (small graphs)") {
    val rnd = new scala.util.Random(7)
    val labels = Vector("a", "b", "c")
    val es = Iterator.continually {
      val u = rnd.nextInt(12); val v = rnd.nextInt(12)
      if (u == v) None
      else Some(LEdge(math.min(u, v).toLong, labels(math.min(u, v) % 3),
                      math.max(u, v).toLong, labels(math.max(u, v) % 3)))
    }.flatten.take(60).toVector.distinct
    Vector(
      singleEdge("a", "b"), path("a", "b", "c"), path("a", "b", "a"),
      path("c", "b", "a", "b"), star("b", "a", "c"), cycle("a", "b", "c"),
      star("a", "b", "b", "b"), cycle("a", "b", "a", "b"),
    ).foreach(q => assertBruteForce(es, q, "assorted"))
  }

  test("spark matches equal brute force for every pattern of the four queryable workloads") {
    val rnd = new scala.util.Random(11)
    Datasets.queryable.foreach { d =>
      val w      = Workloads.forDataset(d.name)
      val labels = w.queries.flatMap(_._1.labels).distinct
      // 24 vertices, labels cycling through the workload's labels.
      val es = Iterator.continually((rnd.nextInt(24), rnd.nextInt(24)))
        .filter { case (u, v) => u != v }
        .map { case (u, v) => (math.min(u, v), math.max(u, v)) }
        .take(90).toVector.distinct
        .map { case (u, v) => LEdge(u.toLong, labels(u % labels.size), v.toLong, labels(v % labels.size)) }
      w.queries.foreach { case (q, _) => assertBruteForce(es, q, d.name) }
    }
    // The automorphic b-a-b case over the same kind of graph.
    assertBruteForce(Vector(LEdge(1, "b", 2, "a"), LEdge(2, "a", 3, "b"), LEdge(2, "a", 4, "b"),
                            LEdge(4, "b", 5, "a"), LEdge(3, "b", 5, "a")),
                     path("b", "a", "b"), "b-a-b")
  }

  test("the DuckDB oracle agrees row for row on the fig1 fragment") {
    // Ids 9, 10 and 100 order differently as numbers and as strings.
    val es = fig1 ++ Vector(LEdge(9, "b", 10, "a"), LEdge(10, "a", 100, "b"))
    val df = edgesDf(es)
    Vector(singleEdge("a", "b"), path("a", "b", "a"), path("b", "a", "b"),
           path("a", "b", "a", "b")).foreach { q =>
      Oracle.assertEquivalent(PatternMatcher.matches(df, q), PatternMatcher.sql(q),
                              PatternMatcher.EdgesView -> df)
    }
  }

  test("the DuckDB oracle agrees row for row on every generated dataset") {
    Datasets.queryable.foreach { d =>
      // One partition: the graphs are tiny. The generator's output has one
      // partition per shuffle partition (the core count, as `JobUtil.session`
      // sets it), so every scan would otherwise run one task per core.
      val df = d.generate(spark, 0.01).coalesce(1).cache()
      try {
        val found = Workloads.forDataset(d.name).queries.map { case (q, _) =>
          val ms = PatternMatcher.matches(df, q)
          Oracle.assertEquivalent(ms, PatternMatcher.sql(q), PatternMatcher.EdgesView -> df)
          ms.count()
        }
        assert(found.sum > 0, s"${d.name}: no matches to compare")
      } finally df.unpersist()
    }
  }

  test("empty graphs yield zero matches") {
    assert(PatternMatcher.matches(edgesDf(Vector.empty), path("a", "b")).count() == 0)
  }
}

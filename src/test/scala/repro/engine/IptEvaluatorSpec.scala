package repro.engine

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.Model._
import repro.core.NaiveIso
import repro.graphgen.Datasets
import repro.workloads.Workloads

/** ipt measurement tests, including the paper's §1 motivating example. */
class IptEvaluatorSpec extends SparkSpec {
  import QueryGraph._

  private def edgesDf(es: Seq[LEdge]): DataFrame = {
    import spark.implicits._
    es.map(e => (e.u, e.uLabel, e.v, e.vLabel)).toDF("u", "ul", "v", "vl")
  }

  /** Brute-force ipt for cross-checking. */
  private def bruteIpt(es: Vector[LEdge], pmap: Map[VId, Int], q: QueryGraph): Long =
    NaiveIso.matches(q, SubGraph(es.toSet)).map { edges =>
      edges.count { case (x, y) => pmap(x) != pmap(y) }.toLong
    }.sum

  /** The paper's §1 example, reconstructed: q2 (a-b-a) matches {(1,2),(2,3)}
    * and {(6,2),(2,3)}; partitioning {A,B} splits both matches while
    * A'={1,2,3,6}, B'={4,5,7,8} gives 0 ipt.
    */
  private val g = Vector(
    LEdge(1, "a", 2, "b"), LEdge(2, "b", 3, "a"), LEdge(6, "a", 2, "b"),
    LEdge(3, "a", 4, "c"), LEdge(4, "c", 5, "c"), LEdge(5, "c", 7, "c"),
    LEdge(7, "c", 8, "c"), LEdge(6, "a", 8, "c"),
  )
  private val q2 = path("a", "b", "a")

  /** Engine (match count, ipt) of one query under pmap. */
  private def queryIpt(pmap: Map[VId, Int], q: QueryGraph): (Long, Long) = {
    val r = IptEvaluator.evaluate(spark, edgesDf(g), pmap, Workload(Vector(q -> 1.0))).perQuery.head
    (r.matchCount, r.ipt)
  }

  test("paper §1: min edge-cut partitioning suffers ipt on every q2 match") {
    // {A, B} = {1,2,3,4} | {5,6,7,8}: good edge-cut, but splits q2's matches.
    val ab = Map(1L -> 0, 2L -> 0, 3L -> 0, 4L -> 0, 5L -> 1, 6L -> 1, 7L -> 1, 8L -> 1)
    val (cnt, ipt) = queryIpt(ab, q2)
    assert(cnt == 3) // {(1,2),(2,3)}, {(6,2),(2,3)}, {(1,2),(2,6)}
    assert(ipt == bruteIpt(g, ab, q2))
    assert(ipt >= 2, s"the workload-agnostic split must pay ipt, got $ipt")
  }

  test("paper §1: the workload-aware partitioning A'B' gives 0 ipt for q2") {
    val aPrime = Map(1L -> 0, 2L -> 0, 3L -> 0, 6L -> 0, 4L -> 1, 5L -> 1, 7L -> 1, 8L -> 1)
    val (cnt, ipt) = queryIpt(aPrime, q2)
    assert(cnt == 3)
    assert(ipt == 0, "A'={1,2,3,6} keeps every a-b-a match internal")
  }

  private val assorted =
    Vector(q2, singleEdge("a", "b"), path("a", "c", "c"), path("c", "c", "c"))
  private lazy val assortedCounts =
    IptEvaluator.counts(edgesDf(g), Workload(assorted.map(_ -> 1.0)))

  /** Asserts that `wc` holds, per query, the match count and the per-edge
    * counts that brute force finds over `graph`.
    */
  private def assertBruteForceCounts(graph: Seq[LEdge], wc: IptEvaluator.WorkloadCounts,
                                     clue: String): Unit = {
    val sub = SubGraph(graph.toSet)
    wc.workload.queries.zip(wc.perQuery).foreach { case ((q, _), ec) =>
      val ms = NaiveIso.matches(q, sub)
      val expected = ms.flatten.groupBy(identity).map { case (e, es) => e -> es.size.toLong }
      assert(ec.matchCount == ms.size, s"$clue pattern $q")
      assert(ec.x.indices.map(j => (ec.x(j), ec.y(j)) -> ec.c(j)).toMap == expected, s"$clue pattern $q")
    }
  }

  test("per-edge match counts equal brute force") {
    assertBruteForceCounts(g, assortedCounts, "assorted")
  }

  test("per-edge match counts equal brute force over each uncached generated dataset") {
    // Uncached, the table carries the generator's whole plan: the case the
    // snapshot in `counts` cuts.
    Datasets.queryable.foreach { d =>
      val df = d.generate(spark, 0.005)
      val es = df.collect().toVector.map(r => LEdge(r.getLong(0), r.getString(1), r.getLong(2), r.getString(3)))
      val wc = IptEvaluator.counts(df, Workloads.forDataset(d.name))
      assert(wc.perQuery.exists(_.matchCount > 0), s"${d.name}: no matches to compare")
      assertBruteForceCounts(es, wc, d.name)
    }
  }

  test("counts releases its edge snapshot, with and without matches") {
    val sc = spark.sparkContext
    Vector(q2 -> true, path("z", "z") -> false).foreach { case (q, matched) =>
      val before = sc.getPersistentRDDs.size
      val wc = IptEvaluator.counts(edgesDf(g), Workload(Vector(q -> 1.0)))
      assert((wc.perQuery.head.matchCount > 0) == matched, s"pattern $q")
      assert(sc.getPersistentRDDs.size == before, s"pattern $q")
    }
  }

  test("ipt equals brute force for assorted partitionings and patterns") {
    val rnd = new scala.util.Random(3)
    val verts = g.flatMap(e => Seq(e.u, e.v)).distinct
    (1 to 5).foreach { trial =>
      val pmap = verts.map(v => v -> rnd.nextInt(3)).toMap
      assortedCounts.score(pmap).perQuery.zip(assorted).foreach { case (r, q) =>
        assert(r.ipt == bruteIpt(g, pmap, q), s"trial $trial pattern $q")
      }
    }
  }

  test("an edge with an unassigned endpoint never crosses") {
    val pmap = Map(1L -> 0, 2L -> 1, 3L -> 0)
    val (_, ipt) = queryIpt(pmap, singleEdge("a", "b"))
    assert(ipt == 2) // (1,2) and (2,3) cross; (6,2) has 6 unassigned
  }

  test("workload evaluation weights per-query ipt by frequency") {
    val pmap = Map(1L -> 0, 2L -> 1, 3L -> 0, 4L -> 0, 5L -> 0, 6L -> 0, 7L -> 0, 8L -> 0)
    val w = Workload(Vector(q2 -> 2.0, singleEdge("a", "b") -> 1.0))
    val res = IptEvaluator.evaluate(spark, edgesDf(g), pmap, w)
    val q2Ipt  = bruteIpt(g, pmap, q2)
    val seIpt  = bruteIpt(g, pmap, singleEdge("a", "b"))
    assert(res.perQuery.size == 2)
    assert(res.totalWeightedIpt == 2.0 * q2Ipt + 1.0 * seIpt)
  }

  test("queries with no matches contribute zero") {
    val pmap = g.flatMap(e => Seq(e.u, e.v)).distinct.map(_ -> 0).toMap
    val res = IptEvaluator.evaluate(spark, edgesDf(g), pmap,
      Workload(Vector(path("z", "z") -> 5.0)))
    assert(res.totalWeightedIpt == 0.0)
    assert(res.totalMatches == 0)
  }

  test("single-partition placement always yields zero ipt") {
    val pmap = g.flatMap(e => Seq(e.u, e.v)).distinct.map(_ -> 0).toMap
    val res = IptEvaluator.evaluate(spark, edgesDf(g), pmap,
      Workload(Vector(q2 -> 1.0, path("c", "c", "c") -> 1.0)))
    assert(res.totalWeightedIpt == 0.0)
    assert(res.totalMatches > 0)
  }
}

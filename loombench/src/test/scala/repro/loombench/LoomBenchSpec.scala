package repro.loombench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{LoomPartitioner, NaiveIso}
import repro.core.Model._
import repro.engine.ExperimentRunner
import repro.workloads.Workloads

/** Checks of the benchmark's own code on small generated graphs. */
class LoomBenchSpec extends AnyFunSuite {

  /** A seeded random simple graph over a workload's labels plus one label
    * no query uses; hub-heavy so that stars and paths have many matches.
    */
  private def graph(w: Workload, vertices: Int, edges: Int, seed: Long): Vector[LEdge] = {
    val rnd    = new scala.util.Random(seed)
    val labels = (w.queries.flatMap(_._1.labels).distinct :+ "Other").toVector
    val label  = Vector.tabulate(vertices)(i => labels(i % labels.size))
    def pick() = (vertices * math.pow(rnd.nextDouble(), 2)).toInt // skew to low ids
    val seen   = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    while (seen.size < edges) {
      val (a, b) = (pick(), rnd.nextInt(vertices))
      if (a != b) seen += ((math.min(a, b), math.max(a, b)))
    }
    seen.toVector.map { case (a, b) => LEdge(a.toLong, label(a), b.toLong, label(b)) }
  }

  private val workloads = Vector(Workloads.dblp, Workloads.musicbrainz, Workloads.provgen,
                                 Workloads.lubm)

  test("reference match counts and per-edge weights equal NaiveIso.matches") {
    for ((w, wi) <- workloads.zipWithIndex; seed <- 1L to 3L) {
      val g   = graph(w, vertices = 60, edges = 150, seed = seed + 10 * wi)
      val ref = new RefScorer(g, w)
      val sub = SubGraph(g.toSet)
      assert(ref.totalMatches > 0, s"workload $wi seed $seed: graph too sparse to test")
      w.queries.zipWithIndex.foreach { case ((q, _), qi) =>
        val naive = NaiveIso.matches(q, sub)
        val want  = naive.flatten.groupBy(identity).map { case (e, es) => e -> es.size.toLong }
        assert(ref.matchCounts(qi) == naive.size, s"workload $wi seed $seed q$qi match count")
        assert(ref.edgeCounts(qi) == want, s"workload $wi seed $seed q$qi edge weights")
      }
    }
  }

  test("reference ipt counts each match's crossing edges") {
    val w   = Workloads.dblp
    val g   = graph(w, vertices = 60, edges = 150, seed = 5L)
    val ref = new RefScorer(g, w)
    val sub = SubGraph(g.toSet)
    val pmap = g.flatMap(e => Seq(e.u, e.v)).distinct.map(v => v -> (v % 3).toInt).toMap
    val res  = ref.score(pmap)
    w.queries.zipWithIndex.foreach { case ((q, f), qi) =>
      val ipt = NaiveIso.matches(q, sub).map(_.count { case (x, y) => pmap(x) != pmap(y) }).sum
      assert(res.perQuery(qi).ipt == ipt.toLong)
      assert(res.perQuery(qi).weightedIpt == f * ipt)
    }
    // Everything on one partition: nothing crosses.
    assert(ref.score(pmap.map { case (v, _) => v -> 0 }).totalWeightedIpt == 0.0)
  }

  test("automorphisms of the workload patterns") {
    import QueryGraph._
    assert(RefScorer.automorphisms(path("A", "B", "A")).size == 2)
    assert(RefScorer.automorphisms(path("A", "B", "C")).size == 1)
    assert(RefScorer.automorphisms(star("P", "A", "A", "A")).size == 6)
    assert(RefScorer.automorphisms(cycle("A", "A", "A", "A")).size == 8)
  }

  test("counter-delta classification of Loom's adds sums to the stream length") {
    for ((w, wi) <- Vector(Workloads.dblp, Workloads.musicbrainz).zipWithIndex;
         window <- Vector(10, 100)) {
      val g      = graph(w, vertices = 300, edges = 1200, seed = 40L + wi)
      val (n, m) = ExperimentRunner.graphStats(g)
      val loom = ExperimentRunner.makePartitioner("Loom", 4, n, m, w, window)
        .asInstanceOf[LoomPartitioner]
      val l = LoomLayers.run(loom, g)
      assert(l.edges == g.size)
      assert(l.nonmotifEdges == loom.ldgEdges)
      assert(l.evictInsertEdges <= loom.evictions)
      assert(l.windowPeak <= window)
      assert(l.accountedNs <= l.wallNs)
      assert(loom.state.totalAssigned == n)
    }
  }

  test("partition checks flag missing vertices and overfull partitions") {
    val vs   = Array(1L, 2L, 3L, 4L)
    val good = Map(1L -> 0, 2L -> 1, 3L -> 0, 4L -> 1)
    assert(Checks.partitionProblems("X", good, vs, k = 2).isEmpty)
    assert(Checks.partitionProblems("X", good - 4L, vs, k = 2).exists(_.contains("unassigned")))
    assert(Checks.partitionProblems("X", good + (5L -> 0), vs, k = 2).exists(_.contains("5 vertices assigned")))
    val full = vs.map(_ -> 0).toMap
    assert(Checks.partitionProblems("X", full, vs, k = 2).exists(_.contains("exceeds capacity")))
  }

  test("recorded fingerprints cover seeds 1-20 of every workload, all four systems") {
    for (spec <- Spec.all; seed <- 1L to 20L)
      assert(Checks.Recorded.get((spec.name, seed)).map(_.keySet) ==
               Some(ExperimentRunner.Systems.toSet), s"${spec.name} seed $seed")
  }

  test("pmap fingerprints depend on every assignment") {
    val a = Map(1L -> 0, 2L -> 1, 3L -> 1)
    assert(Checks.fingerprint(a) == Checks.fingerprint(a.toSeq.reverse.toMap))
    assert(Checks.fingerprint(a) != Checks.fingerprint(a.updated(3L, 0)))
    assert(Checks.fingerprint(a) != Checks.fingerprint(a - 2L))
  }
}

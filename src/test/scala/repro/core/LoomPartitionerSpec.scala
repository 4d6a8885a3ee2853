package repro.core

import scala.collection.mutable
import scala.util.Random
import repro.SparkSpec
import repro.core.Model._
import repro.core.Signature._
import repro.partition._
import repro.workloads.Workloads

/** End-to-end Loom partitioner tests (paper §3–§4). */
class LoomPartitionerSpec extends SparkSpec {
  import QueryGraph._

  private def mkLoom(k: Int, n: Long, w: Workload, window: Int = 100,
                     threshold: Double = 0.4): LoomPartitioner = {
    implicit val c: LabelCoder = new LabelCoder()
    val trie = TPSTry.ofWorkload(w)
    new LoomPartitioner(k, n, trie.motifIndex(threshold), window)
  }

  /** ipt of a workload over a partitioning, computed by brute force. */
  private def bruteIpt(edges: Vector[LEdge], pmap: Map[VId, Int], w: Workload): Double = {
    val g = SubGraph(edges.toSet)
    w.queries.map { case (q, f) =>
      f * NaiveIso.matches(q, g).map { es =>
        es.count { case (x, y) => pmap(x) != pmap(y) }
      }.sum
    }.sum
  }

  /** A two-community a/b graph with motif-heavy intra-community structure. */
  private def communityStream(seed: Int): Vector[LEdge] = {
    val rnd = new Random(seed)
    def community(base: Long): Vector[LEdge] = {
      val as = (0L until 12L).map(base + _)
      val bs = (12L until 20L).map(base + _)
      Vector.tabulate(40) { _ =>
        LEdge(as(rnd.nextInt(as.size)), "a", bs(rnd.nextInt(bs.size)), "b")
      }.distinct
    }
    (community(0) ++ community(100)).distinct
  }

  private val abWorkload = Workload(Vector(
    path("a", "b", "a") -> 3.0,
    path("b", "a", "b") -> 1.0,
  ))

  test("all stream vertices are assigned after finish()") {
    val stream = communityStream(1)
    val loom   = mkLoom(4, 40, abWorkload)
    val pmap   = StreamingPartitioner.run(loom, stream.iterator)
    val verts  = stream.flatMap(e => Seq(e.u, e.v)).toSet
    assert(verts.forall(pmap.contains), "every seen vertex must be placed")
  }

  test("the window is empty after finish()") {
    val loom = mkLoom(4, 40, abWorkload)
    communityStream(2).foreach(loom.add)
    loom.finish()
    assert(loom.matcher.windowSize == 0)
  }

  test("non-motif edges bypass the window entirely") {
    val w    = Workload(Vector(path("a", "b", "a") -> 1.0))
    val loom = mkLoom(2, 10, w)
    loom.add(LEdge(1, "c", 2, "d")) // c-d cannot be a motif edge
    assert(loom.matcher.windowSize == 0)
    assert(loom.state.isAssigned(1) && loom.state.isAssigned(2))
  }

  test("finish() places leftover motif-label vertices in first-seen order") {
    // k = 2, capacity 55. c is outside every motif, so c vertices are placed
    // on arrival; a and b are motif labels, so their vertices on non-motif
    // edges wait.
    val loom = mkLoom(2, 100, abWorkload, window = 10)
    Vector(
      LEdge(1, "a", 10, "c"), LEdge(1, "a", 11, "c"), // x = 1; 10 -> 0, 11 -> 1
      LEdge(2, "a", 10, "c"), LEdge(2, "a", 11, "c"), // y = 2, x's twin
      LEdge(3, "b", 12, "c"),                         // m = 3 waits; 12 -> 0
      LEdge(20, "c", 21, "c"),                        // 20, 21 -> 1
      LEdge(4, "a", 3, "b"),                          // m's first motif edge
    ).foreach(loom.add)
    assert(loom.ldgEdges == 6 && loom.matcher.windowSize == 1)
    assert(Seq(1L, 2L, 3L).forall(v => !loom.state.isAssigned(v)))
    loom.finish()
    // The drain places m with 4 by equal opportunism (12 pulls them to 0),
    // leaving sizes 4 and 3. Then x, one neighbour in each partition, joins
    // the smaller one, 1; y, with the sizes now tied, goes to 0. Placing y
    // before x would swap them.
    assert(loom.eoVertices == 2)
    assert(loom.state.toMap == Map(1L -> 1, 2L -> 0, 3L -> 0, 4L -> 0, 10L -> 0, 11L -> 1,
                                   12L -> 0, 20L -> 1, 21L -> 1))
  }

  test("motif edges are buffered, not assigned immediately") {
    val loom = mkLoom(2, 10, abWorkload)
    loom.add(LEdge(1, "a", 2, "b"))
    assert(loom.matcher.windowSize == 1)
    assert(!loom.state.isAssigned(1) && !loom.state.isAssigned(2))
  }

  test("window capacity triggers evictions in arrival order") {
    val loom = mkLoom(2, 100, abWorkload, window = 3)
    val es = (0 until 6).map(i => LEdge(i * 2L, "a", i * 2L + 1, "b"))
    es.foreach(loom.add)
    assert(loom.matcher.windowSize == 3)
    assert(loom.evictions == 3)
    // First three edges' endpoints are assigned; last three still buffered.
    assert(loom.state.isAssigned(0) && loom.state.isAssigned(1))
    assert(!loom.state.isAssigned(10))
  }

  test("a motif-matching cluster is assigned to a single partition") {
    // One tight a-b-a wedge: both edges and all 3 vertices should co-locate.
    val loom = mkLoom(4, 10, abWorkload, window = 10)
    loom.add(LEdge(1, "a", 2, "b"))
    loom.add(LEdge(3, "a", 2, "b"))
    loom.finish()
    val p = loom.state.toMap
    assert(p(1L) == p(2L) && p(2L) == p(3L),
           s"wedge split across partitions: $p")
  }

  test("balance: no partition exceeds its capacity by more than one cluster") {
    val stream = communityStream(3)
    val verts  = stream.flatMap(e => Seq(e.u, e.v)).toSet.size
    val k      = 4
    val loom   = mkLoom(k, verts.toLong, abWorkload)
    StreamingPartitioner.run(loom, stream.iterator)
    val maxSize = loom.state.sizes.max
    // Equal opportunism bounds growth via the ration; allow cluster-granular
    // slack (the largest motif has 3 vertices).
    assert(maxSize <= math.ceil(1.1 * verts.toDouble / k) + 6,
           s"max partition size $maxSize of $verts vertices, k=$k")
  }

  test("Loom beats Hash on ipt for a motif-heavy stream (the paper's claim)") {
    val stream = communityStream(4)
    val verts  = stream.flatMap(e => Seq(e.u, e.v)).toSet.size.toLong
    val loom   = mkLoom(2, verts, abWorkload, window = 50)
    val loomMap = StreamingPartitioner.run(loom, stream.iterator)
    val hash    = new HashPartitioner(2, verts)
    val hashMap = StreamingPartitioner.run(hash, stream.iterator)
    val loomIpt = bruteIpt(stream, loomMap, abWorkload)
    val hashIpt = bruteIpt(stream, hashMap, abWorkload)
    assert(loomIpt < hashIpt,
           s"Loom ipt $loomIpt should beat Hash ipt $hashIpt")
  }

  test("evictions place the oldest edge (never lose stream edges)") {
    val loom = mkLoom(2, 100, abWorkload, window = 2)
    val es = Vector(
      LEdge(1, "a", 2, "b"), LEdge(3, "a", 2, "b"),
      LEdge(5, "a", 6, "b"), LEdge(7, "a", 6, "b"),
    )
    es.foreach(loom.add)
    loom.finish()
    es.foreach { e =>
      assert(loom.state.isAssigned(e.u) && loom.state.isAssigned(e.v), s"$e lost")
    }
  }

  test("window of size 1 degenerates gracefully") {
    val loom = mkLoom(2, 20, abWorkload, window = 1)
    communityStream(5).take(20).foreach(loom.add)
    loom.finish()
    assert(loom.matcher.windowSize == 0)
  }

  test("deterministic: same stream, same configuration, same partitioning") {
    val stream = communityStream(6)
    def run(): Map[VId, Int] = {
      val loom = mkLoom(3, 40, abWorkload)
      StreamingPartitioner.run(loom, stream.iterator)
    }
    assert(run() == run())
  }
  // ---------- golden pmaps ----------

  /** A seeded labelled stream over `w`'s edge labels plus two labels outside
    * it: mostly edges along the workload's label pairs, 40 vertices per
    * label of which the first is a hub (15% of picks), scattered 64-bit
    * vertex ids, and reversed duplicates of earlier edges (5%). No edge
    * repeats exactly.
    */
  private def goldenStream(w: Workload, seed: Int, size: Int): Vector[LEdge] = {
    val rnd    = new Random(seed)
    val pairs  = w.queries.flatMap(_._1.edgeLabelPairs).distinct
    val labels = (pairs.flatMap { case (a, b) => Vector(a, b) } ++ Vector("Outside", "Stranger")).distinct
    val perLabel = 40
    def vertex(l: String): VId = {
      val i = if (rnd.nextDouble() < 0.15) 0 else rnd.nextInt(perLabel)
      (labels.indexOf(l) * perLabel + i + 1).toLong * 0x9E3779B97F4A7C15L
    }
    val seen  = mutable.LinkedHashSet.empty[LEdge]
    val order = mutable.ArrayBuffer.empty[LEdge]
    while (order.size < size) {
      val e =
        if (order.nonEmpty && rnd.nextDouble() < 0.05) {
          val o = order(rnd.nextInt(order.size))
          LEdge(o.v, o.vLabel, o.u, o.uLabel)
        } else {
          val (la, lb) =
            if (rnd.nextDouble() < 0.8) pairs(rnd.nextInt(pairs.size))
            else (labels(rnd.nextInt(labels.size)), labels(rnd.nextInt(labels.size)))
          val (u, v) = (vertex(la), vertex(lb))
          if (u == v) null
          else if (rnd.nextBoolean()) LEdge(u, la, v, lb) else LEdge(v, lb, u, la)
        }
      if (e != null && seen.add(e)) order += e
    }
    order.toVector
  }

  /** The pmap fingerprint loombench records: 64-bit FNV-1a over the
    * (vertex, partition) pairs in vertex order.
    */
  private def fingerprint(pmap: Map[VId, Int]): String = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit =
      (0 until 8).foreach(i => h = (h ^ ((x >>> (8 * i)) & 0xff)) * 0x100000001b3L)
    pmap.toVector.sortBy(_._1).foreach { case (v, p) => mix(v); mix(p.toLong) }
    f"$h%016x"
  }

  /** Fingerprints of the partitioners as implemented before Loom's core moved
    * to primitive ids, per (dataset, system, window): 3000 edges, k = 8.
    */
  private val golden: Map[(String, String, Int), String] = Map(
    ("DBLP", "LDG", 0)           -> "3ef10a6875203085",
    ("DBLP", "Fennel", 0)        -> "e246b9277abe0d22",
    ("DBLP", "Loom", 100)        -> "802ce3251a444a74",
    ("DBLP", "Loom", 1000)       -> "fc58b2cbec7c5241",
    ("ProvGen", "LDG", 0)        -> "b2f6e9fb51c72164",
    ("ProvGen", "Fennel", 0)     -> "9fbe0e4c813d362a",
    ("ProvGen", "Loom", 100)     -> "c2316d001db0ba9b",
    ("ProvGen", "Loom", 1000)    -> "b288cc801d9b1719",
    ("MusicBrainz", "LDG", 0)    -> "3b96b7b657c03932",
    ("MusicBrainz", "Fennel", 0) -> "643a66d8a0b43170",
    ("MusicBrainz", "Loom", 100) -> "8fe35e46b5c4499a",
    ("MusicBrainz", "Loom", 1000) -> "3d080e9238ea4c1f",
    ("LUBM-100", "LDG", 0)       -> "6359830766c1cf64",
    ("LUBM-100", "Fennel", 0)    -> "eb4a2e045aba0c23",
    ("LUBM-100", "Loom", 100)    -> "11c0328430881bc4",
    ("LUBM-100", "Loom", 1000)   -> "be181f328e8e7a58",
  )

  test("golden pmaps: Loom, LDG and Fennel on seeded labelled streams") {
    val got = for {
      (d, seed) <- Vector("DBLP", "ProvGen", "MusicBrainz", "LUBM-100").zipWithIndex
      w      = Workloads.forDataset(d)
      stream = goldenStream(w, seed + 1, 3000)
      (n, m) = repro.engine.ExperimentRunner.graphStats(stream)
      (sys, window) <- Vector(("LDG", 0), ("Fennel", 0), ("Loom", 100), ("Loom", 1000))
    } yield {
      val p = repro.engine.ExperimentRunner.makePartitioner(sys, 8, n, m, w, math.max(1, window))
      (d, sys, window) -> fingerprint(StreamingPartitioner.run(p, stream.iterator))
    }
    assert(got.toMap == golden)
  }
}

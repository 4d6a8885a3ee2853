package repro.partition

import scala.util.Random
import repro.SparkSpec
import repro.core.Model._

/** Tests for the partitioning substrate: state invariants, Hash, LDG, Fennel. */
class PartitionerSpec extends SparkSpec {

  private def randomStream(n: Int, vRange: Int, seed: Int): Vector[LEdge] = {
    val rnd = new Random(seed)
    Iterator.continually {
      val u = rnd.nextInt(vRange); val v = rnd.nextInt(vRange)
      if (u == v) None
      else Some(LEdge(math.min(u, v).toLong, "a", math.max(u, v).toLong, "b"))
    }.flatten.distinct.take(n).toVector
  }

  // ---------- PartitionState ----------

  test("PartitionState assigns each vertex exactly once") {
    val s = new PartitionState(3, 100)
    s.assign(1, 0); s.assign(1, 2)
    assert(s.partitionOf(1).contains(0), "reassignment must be a no-op")
    assert(s.sizes == Vector(1, 0, 0))
  }

  test("PartitionState tracks sizes and least-loaded") {
    val s = new PartitionState(3, 100)
    s.assign(1, 0); s.assign(2, 0); s.assign(3, 1)
    assert(s.sizes == Vector(2, 1, 0))
    assert(s.leastLoaded == 2)
    assert(s.totalAssigned == 3)
  }

  test("PartitionState rejects out-of-range partitions") {
    val s = new PartitionState(2, 100)
    intercept[IllegalArgumentException] { s.assign(1, 2) }
    intercept[IllegalArgumentException] { s.assign(1, -1) }
  }

  test("imbalance of a perfectly balanced state is 1") {
    val s = new PartitionState(2, 100)
    s.assign(1, 0); s.assign(2, 1)
    assert(s.imbalance == 1.0)
  }

  test("minSizeFloored never returns zero") {
    val s = new PartitionState(4, 100)
    assert(s.minSizeFloored == 1)
  }

  test("bestOpen: ties go to the smaller partition, then the lower index") {
    val s = new PartitionState(4, 3)
    s.assign(1, 0); s.assign(2, 0); s.assign(3, 2) // sizes 2, 0, 1, 0
    assert(s.bestOpen(_ => 1.0) == 1, "smallest, lowest-index partition on a full tie")
    assert(s.bestOpen(i => if (i == 0 || i == 2) 1.0 else 0.0) == 2, "smaller of the tied two")
    assert(s.bestOpen(i => if (i == 0) 1.0 else 0.0) == 0, "a higher score beats a smaller size")
  }

  test("bestOpen skips full partitions and falls back to the least-loaded") {
    val s = new PartitionState(3, 2)
    (1L to 5L).foreach(v => s.assign(v, (v % 3).toInt)) // sizes 1, 2, 2
    assert(s.bestOpen(i => i.toDouble) == 0, "only partition 0 is below capacity")
    s.assign(6, 0); s.assign(7, 0)                      // sizes 3, 2, 2: all full
    assert(s.bestOpen(i => i.toDouble) == 1, "all full: least-loaded, lowest index")
  }

  // ---------- AdjacencyTracker ----------

  test("AdjacencyTracker counts assigned neighbours per partition") {
    val t = new AdjacencyTracker
    val s = new PartitionState(2, 100)
    def id(v: VId): Int = s.ids.id(v)
    t.add(id(1), id(2)); t.add(id(1), id(3))
    s.assign(2, 0); s.assign(3, 1)
    assert(t.neighbourCounts(id(1), s).toVector == Vector(1, 1))
    assert(t.neighbourCounts(id(99), s).toVector == Vector(0, 0))
  }

  // ---------- Hash ----------

  test("Hash is deterministic and spreads sequential ids evenly") {
    val k = 8
    val counts = Array.fill(k)(0)
    (0L until 8000L).foreach(v => counts(HashPartitioner.mix(v, k)) += 1)
    val expect = 1000.0
    counts.foreach(c => assert(math.abs(c - expect) / expect < 0.15,
                               s"hash skew: ${counts.mkString(",")}"))
    assert(HashPartitioner.mix(12345L, k) == HashPartitioner.mix(12345L, k))
  }

  test("Hash partitioner assigns every endpoint immediately") {
    val p = new HashPartitioner(4, 100)
    val stream = randomStream(50, 40, 1)
    stream.foreach { e =>
      p.add(e)
      assert(p.state.isAssigned(e.u) && p.state.isAssigned(e.v))
    }
  }

  // ---------- LDG ----------

  test("LDG prefers the partition with more neighbours") {
    val p = GreedyPartitioner.ldg(2, 100)
    // Build a hub at vertex 1 on some partition, then check a new vertex
    // with two neighbours there follows them.
    p.add(LEdge(1, "a", 2, "b"))       // 1, 2 get placed
    val p1 = p.state.partitionOf(1).get
    p.add(LEdge(1, "a", 3, "b"))       // 3 has neighbour 1
    p.add(LEdge(1, "a", 4, "b"))
    assert(p.state.partitionOf(3).contains(p1))
    assert(p.state.partitionOf(4).contains(p1))
  }

  test("LDG respects the capacity bound") {
    val n = 100
    val k = 4
    val p = GreedyPartitioner.ldg(k, n)
    randomStream(400, n, 2).foreach(p.add)
    val cap = 1.1 * n / k
    p.state.sizes.foreach(s => assert(s <= cap + 1, s"size $s exceeds cap $cap"))
  }

  test("LDG ties break to the least-loaded partition") {
    val p = GreedyPartitioner.ldg(3, 90)
    // Fresh vertices (no neighbours anywhere): scores all zero.
    p.add(LEdge(1, "a", 2, "b"))
    p.add(LEdge(3, "a", 4, "b"))
    p.add(LEdge(5, "a", 6, "b"))
    assert(p.state.sizes == Vector(2, 2, 2))
  }

  // ---------- Fennel ----------

  test("Fennel keeps hard balance under nu = 1.1") {
    val n = 200
    val k = 8
    val p = GreedyPartitioner.fennel(k, n, 800)
    randomStream(800, n, 3).foreach(p.add)
    val cap = 1.1 * n / k
    p.state.sizes.foreach(s => assert(s <= cap + 1, s"size $s exceeds $cap"))
  }

  test("Fennel co-locates disjoint triangles (zero cut), Hash does not") {
    // 10 disjoint triangles streamed triangle-by-triangle: for sparse input
    // (m ≈ n) Fennel's neighbour attraction dominates its balance penalty,
    // so each triangle lands wholly on one partition; balance alternates via
    // the fresh-vertex tie-break.
    val stream = (0 until 10).flatMap { t =>
      val (a, b, c) = (3L * t, 3L * t + 1, 3L * t + 2)
      Vector(LEdge(a, "a", b, "b"), LEdge(b, "b", c, "a"), LEdge(a, "a", c, "a"))
    }.toVector
    def cutEdges(pmap: Map[VId, Int]): Int =
      stream.count(e => pmap(e.u) != pmap(e.v))
    val fMap = StreamingPartitioner.run(GreedyPartitioner.fennel(2, 30, stream.size), stream.iterator)
    val hMap = StreamingPartitioner.run(new HashPartitioner(2, 30), stream.iterator)
    assert(cutEdges(fMap) == 0, s"Fennel should never cut a triangle: ${cutEdges(fMap)}")
    assert(cutEdges(hMap) > 0, "Hash almost surely cuts some triangle")
    assert(math.abs(fMap.values.count(_ == 0) - 15) <= 3, "Fennel stays balanced")
  }

  test("a vertex placed on its first edge: LDG = Fennel while Fennel's penalty gap is below 1") {
    // A star streamed from its hub: each leaf arrives on its first edge with
    // one seen neighbour, the hub on partition 0, and partition 1 is empty. LDG scores that partition
    // 1·(1 − |S_0|/C) > 0 and the other 0, so it follows the hub while
    // partition 0 is open. Fennel scores 1 − αγ√|S_0| against −αγ√|S_1|, so
    // it follows the hub only while the gap αγ(√|S_0| − √|S_1|) is below 1.
    val (k, n, m) = (2, 100L, 200L)
    val alpha  = m * math.sqrt(k.toDouble) / math.pow(n.toDouble, 1.5)
    val ldg    = GreedyPartitioner.ldg(k, n)
    val fennel = GreedyPartitioner.fennel(k, n, m)
    Seq(ldg, fennel).foreach(_.add(LEdge(1, "a", 2, "b")))
    assert(ldg.state.toMap == Map(1L -> 0, 2L -> 0) && fennel.state.toMap == ldg.state.toMap)
    val gaps = Iterator.from(3).map { leaf =>
      val Vector(s0, s1) = fennel.state.sizes
      val gap = alpha * 1.5 * (math.sqrt(s0.toDouble) - math.sqrt(s1.toDouble))
      Seq(ldg, fennel).foreach(_.add(LEdge(1, "a", leaf.toLong, "b")))
      assert(ldg.state.partitionOf(leaf.toLong).contains(0), s"LDG follows the hub: leaf $leaf")
      if (gap < 1) assert(fennel.state.partitionOf(leaf.toLong).contains(0), s"gap $gap at leaf $leaf")
      else assert(fennel.state.partitionOf(leaf.toLong).contains(1), s"gap $gap at leaf $leaf")
      gap
    }.takeWhile(_ < 1).toVector
    // Leaves 3..6 agree (gaps 0.60 to 0.95); leaf 7 (gap 1.04) is where they first differ.
    assert(gaps.size == 4, s"gaps $gaps")
  }

  test("LDG and Fennel assign all stream vertices") {
    val stream = randomStream(300, 120, 4)
    val verts  = stream.flatMap(e => Seq(e.u, e.v)).toSet
    Seq(GreedyPartitioner.ldg(4, 120), GreedyPartitioner.fennel(4, 120, 300)).foreach { p =>
      val pmap = StreamingPartitioner.run(p, stream.iterator)
      assert(verts.forall(pmap.contains), s"${p.name} left vertices unassigned")
    }
  }

  test("partitioners are deterministic for a fixed stream") {
    val stream = randomStream(200, 80, 5)
    def runOnce(mk: () => StreamingPartitioner): Map[VId, Int] =
      StreamingPartitioner.run(mk(), stream.iterator)
    assert(runOnce(() => GreedyPartitioner.ldg(4, 80)) ==
           runOnce(() => GreedyPartitioner.ldg(4, 80)))
    assert(runOnce(() => GreedyPartitioner.fennel(4, 80, 200)) ==
           runOnce(() => GreedyPartitioner.fennel(4, 80, 200)))
    assert(runOnce(() => new HashPartitioner(4, 80)) ==
           runOnce(() => new HashPartitioner(4, 80)))
  }
}

package repro.core

import repro.SparkSpec
import repro.core.Model._
import repro.core.Signature._
import repro.partition.PartitionState

/** Equal-opportunism tests (paper §4, eqs. 1–3 and the worked example). */
class EqualOpportunismSpec extends SparkSpec {
  import EqualOpportunism._
  import EqualOpportunismSpec.TestMatch
  import QueryGraph._

  private implicit val coder: LabelCoder = new LabelCoder()

  /** No vertex has seen neighbours anywhere: bids count membership only. */
  private val noNeighbours: (Int, Int) => Int = (_, _) => 0

  /** Equal opportunism's view of `ms`, with vertex ids encoded by `s`. */
  private def view(s: PartitionState, ms: Seq[TestMatch]): Matches = new Matches {
    private val vs = ms.map(_.vertices.map(s.ids.id).toArray).toVector
    def count: Int                  = ms.size
    def support(i: Int): Double     = ms(i).support
    def size(i: Int): Int           = ms(i).size
    def vertexCount(i: Int): Int    = vs(i).length
    def vertex(i: Int, j: Int): Int = vs(i)(j)
  }
  private def view(s: PartitionState, m: TestMatch): Matches = view(s, Vector(m))

  /** `allocate` over `ms`, with the chosen matches returned as matches. */
  private def allocateOf(s: PartitionState, ms: Vector[TestMatch],
                         n: (Int, Int) => Int): (Allocation, Vector[TestMatch]) = {
    val out = allocate(s, view(s, ms), n)
    (out, out.chosen.map(ms).toVector)
  }

  /** A neighbour count given by external vertex id. */
  private def byExternal(s: PartitionState)(n: (VId, Int) => Int): (Int, Int) => Int =
    (v, pid) => n(s.ids.external(v), pid)

  private def mkState(k: Int, capacity: Double, sizes: Vector[Int]): PartitionState = {
    val s = new PartitionState(k, capacity)
    var next = 100000L
    sizes.zipWithIndex.foreach { case (cnt, pid) =>
      (0 until cnt).foreach { _ => s.assign(next, pid); next += 1 }
    }
    s
  }

  private def mkMatch(support: Double, edges: LEdge*): TestMatch = {
    // Build a one-query trie whose root child has the wanted support by
    // mixing in a dummy query; simpler: fabricate via a trie with two queries.
    val trie = new TPSTry
    val q    = SubGraph(edges.toSet).toQueryGraph
    trie.add(q, support)
    if (support < 1.0) trie.add(path("zz", "zz"), 1.0 - support) // absorbs remaining mass
    val sig  = ofSubGraph(SubGraph(edges.toSet))
    TestMatch(edges.toVector, trie.node(sig).get)
  }

  // ---------- ration l (eq. 2, corrected) ----------

  test("ration is 1 for the smallest partition") {
    val s = mkState(2, 100, Vector(3, 5))
    assert(ration(s, 0) == 1.0)
  }

  test("ration is 0 at the maximum-imbalance capacity") {
    val s = mkState(2, 20, Vector(10, 23)) // 23 >= capacity 20
    assert(ration(s, 1) == 0.0)
    assert(ration(s, 0) == 1.0, "the smallest partition still bids")
  }

  test("ration is (S_min/|V|)·α between the extremes") {
    val s = mkState(2, 100, Vector(10, 11)) // 11 <= 1.1 * 10
    val l = ration(s, 1)
    assert(math.abs(l - (10.0 / 11.0) * (2.0 / 3.0)) < 1e-12)
  }

  test("paper's worked example: a partition 33.3% larger gets ration 1/2") {
    // S1 has 4 vertices, S2 has 3 (33.3% larger); α=2/3 (the paper's default,
    // written reciprocally as 1.5 in its example); both are far below capacity.
    val s = mkState(2, 100, Vector(4, 3))
    val l = ration(s, 0)
    assert(math.abs(l - 0.5) < 1e-12, s"expected 1/2, got $l")
  }

  test("ration with empty partitions does not divide by zero") {
    val s = mkState(3, 100, Vector(0, 0, 0))
    (0 until 3).foreach(pid => assert(ration(s, pid) == 1.0))
  }

  // ---------- bid (eq. 1) ----------

  test("bid scales with shared vertices, residual capacity and support") {
    val s = mkState(2, 10, Vector(2, 0))
    s.assign(1L, 0); s.assign(2L, 0) // vertices 1,2 on partition 0 (sizes 4,0)
    val m = mkMatch(0.5, LEdge(1, "a", 2, "b"), LEdge(2, "b", 3, "a"))
    val b0 = bid(s, 0, view(s, m), 0, noNeighbours)
    // N(S0, m) = 2 (vertices 1,2), residual = 1 - 4/10, supp = 0.5
    assert(math.abs(b0 - 2 * 0.6 * 0.5) < 1e-9)
    assert(bid(s, 1, view(s, m), 0, noNeighbours) == 0.0, "no shared vertices -> zero bid")
  }

  test("bid goes negative above capacity (discourages overfull partitions)") {
    val s = mkState(1, 2, Vector(3))
    s.assign(1L, 0)
    val m = mkMatch(1.0, LEdge(1, "a", 2, "b"))
    assert(bid(s, 0, view(s, m), 0, noNeighbours) < 0)
  }

  // ---------- allocate (eq. 3) ----------

  test("allocation goes to the partition sharing the most (weighted) vertices") {
    val s = mkState(2, 1000, Vector(5, 8))
    s.assign(1L, 0); s.assign(2L, 0); s.assign(3L, 1) // sizes: 7 vs 9
    val e  = LEdge(1, "a", 2, "b")
    val m1 = mkMatch(1.0, e)
    val (out, chosen) = allocateOf(s, Vector(m1), noNeighbours)
    assert(out.winner == 0)
    assert(chosen == Vector(m1))
  }

  test("allocation falls back to the least-loaded partition when all bids are zero") {
    val s = mkState(3, 1000, Vector(4, 2, 7))
    val m = mkMatch(1.0, LEdge(50, "a", 51, "b"))
    val out = allocate(s, view(s, m), noNeighbours)
    assert(out.winner == 1)
  }

  test("chosen matches are a support-sorted prefix") {
    val s  = mkState(2, 1000, Vector(0, 0))
    val e  = LEdge(1, "a", 2, "b")
    val hi = mkMatch(0.9, e)
    val lo = mkMatch(0.3, e, LEdge(2, "b", 3, "a"))
    val (_, chosen) = allocateOf(s, Vector(lo, hi), noNeighbours)
    assert(chosen.head.support >= chosen.last.support)
    assert(chosen.head == hi)
  }

  test("a large partition's ration truncates its prefix of matches") {
    // Partition 0 is at the b-boundary: l = (10/11)*(2/3) ≈ 0.606 -> it bids
    // on ceil(0.606*4)=3 of 4 matches. All match vertices are on partition 0,
    // so it wins, but receives only 3 matches.
    val s = mkState(2, 1000, Vector(0, 0))
    (1L to 10L).foreach(v => s.assign(v, 0))
    (11L to 20L).foreach(v => s.assign(v, 1))
    s.assign(21L, 0) // sizes now 11 vs 10
    val e = LEdge(1, "a", 2, "b")
    val ms = Vector(
      mkMatch(0.9, e),
      mkMatch(0.7, e, LEdge(2, "b", 3, "a")),
      mkMatch(0.5, e, LEdge(2, "b", 4, "a")),
      mkMatch(0.3, e, LEdge(2, "b", 5, "a")),
    )
    val (out, chosen) = allocateOf(s, ms, noNeighbours)
    assert(out.winner == 0)
    assert(chosen.size == 3, s"ration should truncate to 3, got ${chosen.size}")
    assert(chosen.map(_.support) == Vector(0.9, 0.7, 0.5))
  }

  test("at least one match is always chosen (the evicted edge must be placed)") {
    val s = mkState(2, 1000, Vector(10, 30)) // partition 1 over cap: l=0
    (1L to 2L).foreach(v => s.assign(v, 1))  // but match vertices are on 1
    val m  = mkMatch(1.0, LEdge(1, "a", 2, "b"))
    val out = allocate(s, view(s, m), noNeighbours)
    assert(out.chosen.nonEmpty)
  }

  test("allocate rejects empty match lists") {
    val s = mkState(2, 1000, Vector(0, 0))
    intercept[IllegalArgumentException] { allocate(s, view(s, Vector.empty), noNeighbours) }
  }

  test("zero bids: the cluster's LDG choice wins over least-loaded") {
    // Partition 0 is larger, so it bids on only 3 of the 4 matches; vertex 5
    // lies only in the fourth, and its two seen neighbours sit on partition 0.
    // Every bid is zero, but the cluster's adjacency points to partition 0.
    val s = mkState(2, 1000, Vector(11, 10))
    val e = LEdge(1, "a", 2, "b")
    val ms = Vector(
      mkMatch(0.9, e),
      mkMatch(0.7, e, LEdge(2, "b", 3, "a")),
      mkMatch(0.5, e, LEdge(2, "b", 4, "a")),
      mkMatch(0.3, e, LEdge(2, "b", 5, "a")),
    )
    val neighbourN = byExternal(s)((v, pid) => if (v == 5L && pid == 0) 2 else 0)
    val (out, chosen) = allocateOf(s, ms, neighbourN)
    assert(out.fallback)
    assert(s.leastLoaded == 1)
    assert(out.winner == 0)
    assert(chosen.map(_.support) == Vector(0.9, 0.7, 0.5))
  }

  test("tied positive totals: smaller partition, then lower index, wins") {
    // Capacity 8: residual capacities 1/2 (size 4) and 3/4 (size 2), so 3 and
    // 2 neighbours of vertex 50 give both partitions a total of exactly 1.5.
    val m = mkMatch(1.0, LEdge(50, "a", 51, "b"))
    val bySize = mkState(3, 8, Vector(4, 2, 3))
    val n1 = byExternal(bySize)((v, pid) => if (v == 50L) Vector(3, 2, 0)(pid) else 0)
    assert(bid(bySize, 0, view(bySize, m), 0, n1) == bid(bySize, 1, view(bySize, m), 0, n1))
    assert(allocate(bySize, view(bySize, m), n1).winner == 1)
    // Equal sizes and equal totals: the lower index wins.
    val byIndex = mkState(3, 8, Vector(3, 2, 2))
    val n2 = byExternal(byIndex)((v, pid) => if (v == 50L && pid > 0) 1 else 0)
    assert(bid(byIndex, 1, view(byIndex, m), 0, n2) == bid(byIndex, 2, view(byIndex, m), 0, n2))
    assert(allocate(byIndex, view(byIndex, m), n2).winner == 1)
  }

  test("tied support and size: the ration prefix keeps the matches' order") {
    // As the larger-partition case above, but all four matches tie on
    // support and size: the prefix of 3 is the first three as given.
    val s = mkState(2, 1000, Vector(0, 0))
    (1L to 10L).foreach(v => s.assign(v, 0))
    (11L to 20L).foreach(v => s.assign(v, 1))
    s.assign(21L, 0) // sizes now 11 vs 10
    val e  = LEdge(1, "a", 2, "b")
    val ms = Vector(5, 3, 4, 6).map(x => mkMatch(0.5, e, LEdge(2, "b", x.toLong, "a")))
    val (out, chosen) = allocateOf(s, ms, noNeighbours)
    assert(out.winner == 0)
    assert(out.chosen == Vector(0, 1, 2))
    assert(chosen == ms.take(3))
  }
}

object EqualOpportunismSpec {

  /** A motif match as these tests build it: its edges and its trie node. */
  final case class TestMatch(edges: Vector[LEdge], node: TPSTry#Node) {
    def size: Int             = edges.size
    def support: Double       = node.support
    def vertices: Vector[VId] = edges.flatMap(e => Vector(e.u, e.v)).distinct
  }
}

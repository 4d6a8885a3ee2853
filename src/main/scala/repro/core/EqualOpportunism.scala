package repro.core

import scala.collection.immutable.ArraySeq
import repro.partition.PartitionState

/** The equal-opportunism allocation heuristic (paper §4, eqs. 1–3).
  *
  * Given the support-sorted motif matches M_e of an edge being evicted from
  * the window, each partition bids on a rationed prefix of M_e; the winning
  * partition receives that prefix wholly. The ration l(S_i) shrinks as S_i
  * grows relative to the smallest partition, so small partitions may bid on
  * (and win) more matches — preserving balance while keeping frequently
  * co-traversed sub-graphs together.
  */
object EqualOpportunism {

  /** α: how aggressively l penalises larger partitions (the paper's 2/3).
    * The maximum imbalance b is not a parameter here: it is Loom's capacity
    * slack (1.1, emulating Fennel), which `state.capacity` = b·n/k carries.
    */
  val Alpha: Double = 2.0 / 3.0

  /** The ration l(S_i) ∈ [0, 1] (paper eq. 2, corrected to be inversely
    * correlated with |V(S_i)|/S_min as the prose and worked example demand):
    * 1 when S_i is as small as the smallest partition, 0 when it has reached
    * the maximum-imbalance capacity b·n/k ("emulating Fennel", §4 — a cutoff
    * relative to the momentary S_min would bar all but the smallest
    * partitions from bidding mid-stream and degenerate every allocation to
    * least-loaded), and (S_min/|V(S_i)|)·α in between.
    */
  def ration(state: PartitionState, pid: Int): Double = {
    val sMin = state.minSizeFloored
    val si   = state.size(pid)
    if (si >= state.capacity) 0.0
    else if (si <= sMin) 1.0
    else (sMin.toDouble / si) * Alpha
  }

  /** The motif matches of one eviction, as equal opportunism reads them:
    * match i has a support, a size in edges, and `vertexCount(i)` vertices,
    * given as dense ids of the [[PartitionState]] it is allocated against.
    */
  trait Matches {
    def count: Int
    def support(i: Int): Double
    def size(i: Int): Int
    def vertexCount(i: Int): Int
    def vertex(i: Int, j: Int): Int
  }

  /** bid(S_i, ⟨E_k, m_k⟩) = N(S_i, E_k) · (1 − |V(S_i)|/C) · supp(m_k)
    * (paper eq. 1) for match i of `ms`. Per footnote 8, N generalises
    * **LDG's** N — which counts incident edges in a partition — to
    * sub-graphs: N(S_i, E_k) is the number of edges between E_k's vertices
    * and vertices already assigned to S_i (`neighbourN(v, i)`, v's seen
    * neighbours in S_i), plus the membership count |V(S_i) ∩ V(E_k)|.
    */
  def bid(state: PartitionState, pid: Int, ms: Matches, i: Int,
          neighbourN: (Int, Int) => Int): Double = {
    var n = 0.0
    var j = 0
    while (j < ms.vertexCount(i)) {
      val v = ms.vertex(i, j)
      if (state.partOfId(v) == pid) n += 1
      n += neighbourN(v, pid)
      j += 1
    }
    n * (1.0 - state.size(pid) / state.capacity) * ms.support(i)
  }

  /** Outcome of an allocation round: the winning partition, the indices of
    * the chosen matches (a prefix of the support order), and whether every
    * total bid was ≤ 0 so that the cluster's LDG choice won.
    */
  final case class Allocation(winner: Int, chosen: IndexedSeq[Int], fallback: Boolean)

  /** Run equal opportunism for the eviction of edge e with its motif matches
    * `ms` (all of which contain e); `neighbourN(v, i)` counts v's seen
    * neighbours in partition i. Matches are sorted by descending support
    * (smaller matches first on ties — ancestors dominate — then in the
    * order of `ms`). The winner is the open partition with the highest total
    * bid over its rationed prefix. If every total is ≤ 0 (e.g. no match
    * vertex is assigned yet), the winner is the cluster's LDG choice: the
    * open partition maximising Σ_v neighbourN(v, i) · (1 − |V(S_i)|/C) over
    * all the matches' vertices, whose adjacency into the partitioned graph
    * still carries signal. Both choices are [[PartitionState.bestOpen]], so
    * ties go to the smaller partition, then to the lower index, and a state
    * with every partition full falls back to the least-loaded one. The
    * winner receives its own rationed prefix; at least one match is always
    * chosen so the evicted edge itself is always placed.
    */
  def allocate(state: PartitionState, ms: Matches,
               neighbourN: (Int, Int) => Int): Allocation = {
    require(ms.count > 0, "allocate requires at least one match")
    val sorted = supportOrder(ms)

    def prefixLen(pid: Int): Int = {
      val l = ration(state, pid)
      if (l <= 0) 0
      else math.min(sorted.length, math.ceil(l * sorted.length).toInt)
    }

    val totals = new Array[Double](state.k)
    var pid    = 0
    while (pid < state.k) {
      val n = prefixLen(pid)
      var j = 0
      while (j < n) { totals(pid) += bid(state, pid, ms, sorted(j), neighbourN); j += 1 }
      pid += 1
    }
    val best     = state.bestOpen(totals(_))
    val fallback = totals(best) <= 0
    val winner   =
      if (!fallback) best
      else {
        val verts = clusterVertices(ms)
        state.bestOpen { i =>
          var n = 0
          verts.foreach(v => n += neighbourN(v, i))
          n * (1.0 - state.size(i) / state.capacity)
        }
      }
    Allocation(winner, ArraySeq.unsafeWrapArray(sorted.take(math.max(1, prefixLen(winner)))), fallback)
  }

  /** Indices of `ms`, stably sorted by descending support, then ascending
    * size (`sortWith` is stable, so ties keep the order of `ms`).
    */
  private def supportOrder(ms: Matches): Array[Int] = {
    def before(x: Int, y: Int): Boolean = {
      val sx = ms.support(x)
      val sy = ms.support(y)
      sx > sy || (sx == sy && ms.size(x) < ms.size(y))
    }
    Array.range(0, ms.count).sortWith(before)
  }

  /** The distinct vertices of all matches in `ms`. */
  private def clusterVertices(ms: Matches): Array[Int] = {
    val vs = Array.newBuilder[Int]
    for (i <- 0 until ms.count; j <- 0 until ms.vertexCount(i)) vs += ms.vertex(i, j)
    vs.result().distinct
  }
}

package repro.core

import repro.core.Model._
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

  /** bid(S_i, ⟨E_k, m_k⟩) = N(S_i, E_k) · (1 − |V(S_i)|/C) · supp(m_k)
    * (paper eq. 1). Per footnote 8, N generalises **LDG's** N — which counts
    * incident edges in a partition — to sub-graphs: N(S_i, E_k) is the number
    * of edges between E_k's vertices and vertices already assigned to S_i
    * (`neighbourN(v, i)`, v's seen neighbours in S_i), plus the membership
    * count |V(S_i) ∩ V(E_k)|.
    */
  def bid(state: PartitionState, pid: Int, m: MotifMatch,
          neighbourN: (VId, Int) => Int): Double = {
    var n = 0.0
    m.vertices.foreach { v =>
      if (state.partitionOf(v).contains(pid)) n += 1
      n += neighbourN(v, pid)
    }
    n * (1.0 - state.size(pid) / state.capacity) * m.support
  }

  /** Outcome of an allocation round. `fallback` is true when every total
    * bid was ≤ 0 and the cluster's LDG choice won.
    */
  final case class Allocation(winner: Int, chosen: Vector[MotifMatch],
                              fallback: Boolean)

  /** Run equal opportunism for the eviction of edge e with its motif matches
    * `matches` (all of which contain e); `neighbourN(v, i)` counts v's seen
    * neighbours in partition i. Matches are sorted by descending support
    * (smaller matches first on ties — ancestors dominate). The winner is the
    * open partition with the highest total bid over its rationed prefix.
    * If every total is ≤ 0 (e.g. no match vertex is assigned yet), the
    * winner is the cluster's LDG choice: the open partition maximising
    * Σ_v neighbourN(v, i) · (1 − |V(S_i)|/C) over all the matches' vertices,
    * whose adjacency into the partitioned graph still carries signal. Both
    * choices are [[PartitionState.bestOpen]], so ties go to the smaller
    * partition, then to the lower index, and a state with every partition
    * full falls back to the least-loaded one. The winner receives its own
    * rationed prefix; at least one match is always chosen so the evicted
    * edge itself is always placed.
    */
  def allocate(state: PartitionState, matches: Vector[MotifMatch],
               neighbourN: (VId, Int) => Int): Allocation = {
    require(matches.nonEmpty, "allocate requires at least one match")
    val sorted = matches.sortBy(m => (-m.support, m.size))

    def prefixLen(pid: Int): Int = {
      val l = ration(state, pid)
      if (l <= 0) 0
      else math.min(sorted.size, math.ceil(l * sorted.size).toInt)
    }

    def totalBid(pid: Int): Double =
      sorted.take(prefixLen(pid)).map(bid(state, pid, _, neighbourN)).sum

    val totals   = Vector.tabulate(state.k)(totalBid)
    val best     = state.bestOpen(totals)
    val fallback = totals(best) <= 0
    val winner   =
      if (!fallback) best
      else {
        val verts = sorted.iterator.flatMap(_.vertices).toSet
        state.bestOpen(i =>
          verts.iterator.map(neighbourN(_, i)).sum * (1.0 - state.size(i) / state.capacity))
      }
    Allocation(winner, sorted.take(math.max(1, prefixLen(winner))), fallback)
  }
}

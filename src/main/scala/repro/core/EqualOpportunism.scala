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
    * (`neighbourN`), plus the membership count |V(S_i) ∩ V(E_k)|. When no
    * adjacency is supplied only the membership term remains (the eq. 1
    * surface reading).
    */
  def bid(state: PartitionState, pid: Int, m: MotifMatch,
          neighbourN: (VId, Int) => Int = (_, _) => 0): Double = {
    var n = 0.0
    m.vertices.foreach { v =>
      if (state.partitionOf(v).contains(pid)) n += 1
      n += neighbourN(v, pid)
    }
    n * (1.0 - state.size(pid) / state.capacity) * m.support
  }

  /** Outcome of an allocation round. `fallback` is true when every total
    * bid was ≤ 0 and the least-loaded partition won by default.
    */
  final case class Allocation(winner: Int, chosen: Vector[MotifMatch],
                              fallback: Boolean)

  /** Run equal opportunism for the eviction of edge e with its motif matches
    * `matches` (all of which contain e). Matches are sorted by descending
    * support (smaller matches first on ties — ancestors dominate). The
    * winner is the partition with the highest total bid over its rationed
    * prefix; if every total is ≤ 0 (e.g. no match vertex is assigned yet),
    * the least-loaded partition wins its own rationed prefix. At least one
    * match is always chosen so the evicted edge itself is always placed.
    */
  def allocate(state: PartitionState, matches: Vector[MotifMatch],
               fallbackWinner: Option[Int] = None,
               neighbourN: (VId, Int) => Int = (_, _) => 0): Allocation = {
    require(matches.nonEmpty, "allocate requires at least one match")
    val sorted = matches.sortBy(m => (-m.support, m.size))

    def prefixLen(pid: Int): Int = {
      val l = ration(state, pid)
      if (l <= 0) 0
      else math.min(sorted.size, math.ceil(l * sorted.size).toInt)
    }

    def totalBid(pid: Int): Double =
      sorted.take(prefixLen(pid)).map(bid(state, pid, _, neighbourN)).sum

    val totals   = (0 until state.k).map(totalBid)
    val best     = totals.indices.maxBy(i => (totals(i), -state.size(i)))
    val fallback = totals(best) <= 0
    // With no informative bids (e.g. every match vertex is still unassigned)
    // defer to the caller-provided heuristic winner — Loom passes the LDG
    // choice for the evicted edge, its heuristic for non-motif edges (§4) —
    // or to the least-loaded partition.
    val winner   = if (fallback) fallbackWinner.getOrElse(state.leastLoaded) else best
    Allocation(winner, sorted.take(math.max(1, prefixLen(winner))), fallback)
  }
}

package repro.partition

import repro.core.Model._

/** Linear Deterministic Greedy streaming partitioner (Stanton & Kliot, [29]).
  *
  * Edge-stream variant as described in the Loom paper §4: when an edge
  * arrives, each yet-unassigned endpoint v is placed on the partition
  * maximising `N(S_i, v) · (1 − |V(S_i)|/C)` where N counts v's already-seen
  * neighbours in S_i and C is the per-partition capacity. Ties (including
  * the all-zero score of a fresh vertex) go to the least-loaded partition,
  * which keeps LDG's imbalance within a few percent (paper §5.2).
  */
final class LdgPartitioner(k: Int, nExpected: Long) extends StreamingPartitioner {
  override val name  = "LDG"
  override val state = new PartitionState(
    k, capacity = math.max(1.0, LdgPartitioner.Slack * nExpected.toDouble / k))

  private val adjacency = new AdjacencyTracker

  override def add(e: LEdge): Unit = {
    val u = state.ids.id(e.u)
    val v = state.ids.id(e.v)
    adjacency.add(u, v)
    LdgPartitioner.place(state, adjacency, u)
    LdgPartitioner.place(state, adjacency, v)
  }
}

object LdgPartitioner {

  /** Capacity C = slack·n/k (Stanton & Kliot's 1.1). */
  val Slack: Double = 1.1

  /** Place dense id v, if unassigned, on the open partition maximising
    * `N(S_i, v) · (1 − |V(S_i)|/C)` (tie and all-full rules of
    * [[PartitionState.bestOpen]]).
    */
  def place(state: PartitionState, adjacency: AdjacencyTracker, v: Int): Unit =
    if (!state.isAssignedId(v)) {
      val counts = adjacency.neighbourCounts(v, state)
      state.assignId(v, state.bestOpen(i => counts(i) * (1.0 - state.size(i) / state.capacity)))
    }
}

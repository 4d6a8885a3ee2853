package repro.partition

import repro.core.Model._

/** A greedy vertex placer over an edge stream: LDG and Fennel.
  *
  * Edge-stream variant as described in the Loom paper §4: when an edge
  * arrives, each yet-unassigned endpoint v is placed on the open partition
  * maximising `score(state, N(S_i, v), i)`, where N counts v's already-seen
  * neighbours in S_i (tie and all-full rules of [[PartitionState.bestOpen]]).
  * The capacity is [[PartitionState.Slack]]·n/k.
  */
final class GreedyPartitioner(val name: String, k: Int, nExpected: Long,
                              score: GreedyPartitioner.Score) extends StreamingPartitioner {
  override val state = PartitionState.withSlack(k, nExpected)

  private val adjacency = new AdjacencyTracker

  override def add(e: LEdge): Unit = {
    val u = state.ids.id(e.u)
    val v = state.ids.id(e.v)
    adjacency.add(u, v)
    GreedyPartitioner.place(state, adjacency, u, score)
    GreedyPartitioner.place(state, adjacency, v, score)
  }
}

object GreedyPartitioner {

  /** The score of partition `pid` for a vertex with `n` seen neighbours in
    * it. A trait with primitive parameters, so a call does not box.
    */
  trait Score {
    def apply(state: PartitionState, n: Int, pid: Int): Double
  }

  /** LDG's score N(S_i, v) · (1 − |V(S_i)|/C). Ties, including the all-zero
    * score of a fresh vertex, go to the least-loaded partition, which keeps
    * LDG's imbalance within a few percent (paper §5.2).
    */
  val Ldg: Score = (state, n, pid) => n * (1.0 - state.size(pid) / state.capacity)

  /** Linear Deterministic Greedy (Stanton & Kliot, [29]). */
  def ldg(k: Int, n: Long): GreedyPartitioner = new GreedyPartitioner("LDG", k, n, Ldg)

  /** Fennel (Tsourakakis et al., [30]): the marginal gain
    * N(S_i, v) − α·γ·|S_i|^(γ−1) with γ = 1.5 (the value used throughout the
    * Loom paper's evaluation) and α = m·k^(γ−1)/n^γ.
    */
  def fennel(k: Int, n: Long, m: Long): GreedyPartitioner = {
    val gamma = 1.5
    val alpha = math.max(1L, m).toDouble * math.pow(k.toDouble, gamma - 1) /
                  math.pow(math.max(1L, n).toDouble, gamma)
    new GreedyPartitioner("Fennel", k, n,
      (state, c, pid) => c - alpha * gamma * math.pow(state.size(pid).toDouble, gamma - 1))
  }

  /** Place dense id v, if unassigned, on the open partition with the highest
    * `score`.
    */
  def place(state: PartitionState, adjacency: AdjacencyTracker, v: Int, score: Score): Unit =
    if (!state.isAssignedId(v)) {
      val counts = adjacency.neighbourCounts(v, state)
      state.assignId(v, state.bestOpen(i => score(state, counts(i), i)))
    }
}

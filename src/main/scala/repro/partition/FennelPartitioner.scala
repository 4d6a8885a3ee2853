package repro.partition

import repro.core.Model._

/** Fennel streaming partitioner (Tsourakakis et al., [30]).
  *
  * Places each unassigned vertex v on the partition maximising the marginal
  * gain `N(S_i, v) − α·γ·|S_i|^(γ−1)` with γ = 1.5 (the value used throughout
  * the Loom paper's evaluation) and α = m·k^(γ−1)/n^γ, subject to the hard
  * balance constraint |S_i| < ν·n/k with ν = 1.1.
  */
final class FennelPartitioner(k: Int, nExpected: Long, mExpected: Long)
    extends StreamingPartitioner {
  import FennelPartitioner.{Gamma, Nu}

  override val name = "Fennel"

  private val n     = math.max(1L, nExpected).toDouble
  private val m     = math.max(1L, mExpected).toDouble
  private val alpha = m * math.pow(k.toDouble, Gamma - 1) / math.pow(n, Gamma)

  override val state = new PartitionState(k, capacity = math.max(1.0, Nu * n / k))

  private val adjacency = new AdjacencyTracker

  override def add(e: LEdge): Unit = {
    val u = state.ids.id(e.u)
    val v = state.ids.id(e.v)
    adjacency.add(u, v)
    place(u)
    place(v)
  }

  private def place(v: Int): Unit = if (!state.isAssignedId(v)) {
    val counts = adjacency.neighbourCounts(v, state)
    state.assignId(v, state.bestOpen(i =>
      counts(i) - alpha * Gamma * math.pow(state.size(i).toDouble, Gamma - 1)))
  }
}

object FennelPartitioner {

  /** The cost exponent γ used throughout the Loom paper's evaluation. */
  val Gamma: Double = 1.5

  /** Hard balance slack ν: |S_i| < ν·n/k. */
  val Nu: Double = 1.1
}

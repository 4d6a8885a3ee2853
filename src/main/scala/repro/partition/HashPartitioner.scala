package repro.partition

import repro.core.Model._

/** Naive hash partitioner (the paper's baseline, §5.1).
  *
  * Assigns each vertex to `mix(v) mod k` on first sight — the default
  * placement strategy of several production graph databases (e.g. Titan).
  * Perfectly balanced in expectation, workload- and topology-agnostic.
  */
final class HashPartitioner(k: Int, nExpected: Long) extends StreamingPartitioner {
  override val name            = "Hash"
  override val state           = new PartitionState(k, capacity = math.max(1.0, nExpected.toDouble / k))

  override def add(e: LEdge): Unit = {
    place(e.u)
    place(e.v)
  }

  private def place(v: VId): Unit = {
    val d = state.ids.id(v)
    if (!state.isAssignedId(d)) state.assignId(d, HashPartitioner.mix(v, k))
  }
}

object HashPartitioner {

  /** 64-bit finaliser mix (splitmix64) so sequential ids spread uniformly. */
  def mix(v: VId, k: Int): Int = {
    var z = v + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z = z ^ (z >>> 31)
    (java.lang.Long.remainderUnsigned(z, k.toLong)).toInt
  }
}

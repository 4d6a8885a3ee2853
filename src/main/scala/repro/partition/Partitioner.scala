package repro.partition

import scala.collection.mutable
import repro.core.Model._

/** Mutable state of a vertex-centric k-way partitioning (paper §1.3).
  *
  * Tracks the vertex → partition map and per-partition vertex counts. A
  * vertex, once assigned, is never moved (strict streaming model: no
  * refinement, no replication).
  */
final class PartitionState(val k: Int, val capacity: Double) {
  require(k >= 1, "need at least one partition")
  require(capacity > 0, "capacity must be positive")

  private val assignment = mutable.Map.empty[VId, Int]
  private val counts     = Array.fill(k)(0)

  /** Partition of v, if assigned. */
  def partitionOf(v: VId): Option[Int] = assignment.get(v)

  /** True if v has been assigned. */
  def isAssigned(v: VId): Boolean = assignment.contains(v)

  /** Assign v to partition pid; no-op if already assigned (no reassignment). */
  def assign(v: VId, pid: Int): Unit = {
    require(pid >= 0 && pid < k, s"partition $pid out of range")
    if (!assignment.contains(v)) {
      assignment(v) = pid
      counts(pid) += 1
    }
  }

  /** |V(S_i)|: number of vertices currently in partition pid. */
  def size(pid: Int): Int = counts(pid)

  /** Vertex counts for all partitions. */
  def sizes: Vector[Int] = counts.toVector

  /** Index of a least-loaded partition (lowest index on ties). */
  def leastLoaded: Int = counts.indices.minBy(counts)

  /** The open partition (size below capacity) with the highest `score`.
    * Ties go to the smaller partition, then to the lower index; if every
    * partition is full, the least-loaded one. This is the one greedy choice
    * of LDG, Fennel and equal opportunism (its winner and its zero-bid
    * fallback).
    */
  def bestOpen(score: Int => Double): Int = {
    var best      = -1
    var bestScore = Double.NegativeInfinity
    var i         = 0
    while (i < k) {
      if (counts(i) < capacity) {
        val s = score(i)
        if (s > bestScore || (s == bestScore && best >= 0 && counts(i) < counts(best))) {
          best = i; bestScore = s
        }
      }
      i += 1
    }
    if (best >= 0) best else leastLoaded
  }

  /** Size of the smallest partition, floored at 1 (for ration computations). */
  def minSizeFloored: Int = math.max(1, counts.min)

  /** Total vertices assigned. */
  def totalAssigned: Int = counts.sum

  /** Max/avg vertex-count imbalance ratio (1.0 = perfectly balanced). */
  def imbalance: Double = {
    val total = counts.sum
    if (total == 0) 1.0 else counts.max.toDouble / (total.toDouble / k)
  }

  /** Snapshot of the full vertex → partition map. */
  def toMap: Map[VId, Int] = assignment.toMap
}

/** A one-pass streaming partitioner over a labelled edge stream. */
trait StreamingPartitioner {
  def name: String

  /** Consume the next stream edge, possibly assigning vertices. */
  def add(e: LEdge): Unit

  /** Flush any buffered state (e.g. Loom's sliding window) at stream end. */
  def finish(): Unit = ()

  /** The partition state (all stream vertices are assigned after finish()). */
  def state: PartitionState
}

object StreamingPartitioner {

  /** Run a partitioner over a full stream and return the vertex→partition map. */
  def run(p: StreamingPartitioner, stream: Iterator[LEdge]): Map[VId, Int] = {
    stream.foreach(p.add)
    p.finish()
    p.state.toMap
  }
}

/** Incrementally maintained adjacency of the stream seen so far.
  *
  * LDG and Fennel score a vertex by how many of its already-seen neighbours
  * live in each partition; this tracker provides those neighbour lists.
  */
final class AdjacencyTracker {
  private val adj = mutable.Map.empty[VId, mutable.ArrayBuffer[VId]]

  def add(e: LEdge): Unit = {
    adj.getOrElseUpdate(e.u, mutable.ArrayBuffer.empty) += e.v
    adj.getOrElseUpdate(e.v, mutable.ArrayBuffer.empty) += e.u
  }

  /** Neighbours of v observed so far (possibly with multiplicity). */
  def neighbours(v: VId): collection.Seq[VId] =
    adj.getOrElse(v, mutable.ArrayBuffer.empty)

  /** N(S_i, v): count of v's seen neighbours per partition. */
  def neighbourCounts(v: VId, state: PartitionState): Array[Int] = {
    val counts = Array.fill(state.k)(0)
    neighbours(v).foreach { w =>
      state.partitionOf(w).foreach(pid => counts(pid) += 1)
    }
    counts
  }
}

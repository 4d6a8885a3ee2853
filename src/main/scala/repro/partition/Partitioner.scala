package repro.partition

import repro.core.Model._

/** Mutable state of a vertex-centric k-way partitioning (paper §1.3).
  *
  * Tracks the vertex → partition map and per-partition vertex counts. A
  * vertex, once assigned, is never moved (strict streaming model: no
  * refinement, no replication).
  *
  * Vertices are kept by dense id: [[ids]] numbers the external ids in
  * first-sight order, and the assignment is an `Array[Int]` indexed by
  * dense id. The partitioners encode each edge's endpoints once, in `add`,
  * and work on dense ids from there on; `toMap` decodes back to external
  * ids.
  */
final class PartitionState(val k: Int, val capacity: Double) {
  require(k >= 1, "need at least one partition")
  require(capacity > 0, "capacity must be positive")

  /** The vertex encoder every partitioner on this state shares. */
  val ids = new VertexIds

  // Partition + 1 by dense id; 0 = unassigned.
  private var assignment = new Array[Int](16)
  private val counts     = Array.fill(k)(0)

  /** Partition of dense id d, or -1 if d is unassigned. */
  def partOfId(d: Int): Int = if (d < assignment.length) assignment(d) - 1 else -1

  def isAssignedId(d: Int): Boolean = partOfId(d) >= 0

  /** Assign dense id d to partition pid; no-op if already assigned. */
  def assignId(d: Int, pid: Int): Unit = {
    require(pid >= 0 && pid < k, s"partition $pid out of range")
    if (d >= assignment.length)
      assignment = java.util.Arrays.copyOf(assignment, math.max(2 * assignment.length, d + 1))
    if (assignment(d) == 0) {
      assignment(d) = pid + 1
      counts(pid) += 1
    }
  }

  /** Partition of v, if assigned. */
  def partitionOf(v: VId): Option[Int] = {
    val d = ids.find(v)
    if (d >= 0 && isAssignedId(d)) Some(partOfId(d)) else None
  }

  /** True if v has been assigned. */
  def isAssigned(v: VId): Boolean = {
    val d = ids.find(v)
    d >= 0 && isAssignedId(d)
  }

  /** Assign v to partition pid; no-op if already assigned (no reassignment). */
  def assign(v: VId, pid: Int): Unit = assignId(ids.id(v), pid)

  /** |V(S_i)|: number of vertices currently in partition pid. */
  def size(pid: Int): Int = counts(pid)

  /** Vertex counts for all partitions. */
  def sizes: Vector[Int] = counts.toVector

  /** Index of a least-loaded partition (lowest index on ties). */
  def leastLoaded: Int = {
    var best = 0
    var i    = 1
    while (i < k) { if (counts(i) < counts(best)) best = i; i += 1 }
    best
  }

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
  def minSizeFloored: Int = math.max(1, counts(leastLoaded))

  /** Total vertices assigned. */
  def totalAssigned: Int = counts.sum

  /** Max/avg vertex-count imbalance ratio (1.0 = perfectly balanced). */
  def imbalance: Double = {
    val total = counts.sum
    if (total == 0) 1.0 else counts.max.toDouble / (total.toDouble / k)
  }

  /** Snapshot of the full vertex → partition map, by external id. */
  def toMap: Map[VId, Int] = {
    val b = Map.newBuilder[VId, Int]
    var d = 0
    while (d < ids.size) {
      if (isAssignedId(d)) b += ids.external(d) -> partOfId(d)
      d += 1
    }
    b.result()
  }
}

object PartitionState {

  /** Capacity slack b: LDG, Fennel and Loom cap each partition at b·n/k
    * (Stanton & Kliot's 1.1, Fennel's ν; Loom emulates Fennel).
    */
  val Slack: Double = 1.1

  /** A state for n expected vertices over k partitions, capacity b·n/k. */
  def withSlack(k: Int, n: Long): PartitionState =
    new PartitionState(k, capacity = math.max(1.0, Slack * n.toDouble / k))
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

/** Incrementally maintained adjacency of the stream seen so far, by dense
  * vertex id.
  *
  * LDG and Fennel score a vertex by how many of its already-seen neighbours
  * live in each partition; this tracker provides those neighbour lists. A
  * repeated edge is listed again (neighbours keep their multiplicity).
  */
final class AdjacencyTracker {
  private val adj    = new IntLists
  private var counts = Array.emptyIntArray

  def add(u: Int, v: Int): Unit = {
    adj.append(u, v)
    adj.append(v, u)
  }

  /** N(S_i, v): count of v's seen neighbours per partition. The array is
    * reused: the next call overwrites it.
    */
  def neighbourCounts(v: Int, state: PartitionState): Array[Int] = {
    if (counts.length != state.k) counts = new Array[Int](state.k)
    else java.util.Arrays.fill(counts, 0)
    val n = adj.length(v)
    if (n > 0) {
      val ws = adj.array(v)
      var i  = 0
      while (i < n) {
        val pid = state.partOfId(ws(i))
        if (pid >= 0) counts(pid) += 1
        i += 1
      }
    }
    counts
  }
}

package repro.core

import repro.core.Model._
import repro.partition.{AdjacencyTracker, LdgPartitioner, PartitionState, StreamingPartitioner}

/** Loom: the paper's workload-aware streaming partitioner (§1.4, §3, §4).
  *
  * Pipeline per stream edge e:
  *   1. If e cannot match any single-edge motif of the workload's TPSTry++,
  *      it can never be part of a motif match — assign its endpoints
  *      immediately with LDG and never buffer it (§3).
  *   2. Otherwise insert e into the sliding window P_temp, growing/joining
  *      motif matches via the [[MotifMatcher]]. If the window is full, first
  *      evict the oldest edge: its support-sorted motif matches go through
  *      [[EqualOpportunism]] and the winning partition receives the rationed
  *      prefix of matches wholly (all their unassigned vertices), after
  *      which those edges leave the window (§4).
  *   3. At stream end, `finish()` drains the window the same way.
  */
final class LoomPartitioner(
    k: Int,
    nExpected: Long,
    motifs: MotifIndex,
    val windowCapacity: Int = 10000
) extends StreamingPartitioner {
  require(windowCapacity >= 1, "window capacity must be >= 1")

  override val name = "Loom"
  override val state = new PartitionState(
    k, capacity = math.max(1.0, LoomPartitioner.CapacitySlack * nExpected.toDouble / k))

  val matcher = new MotifMatcher(motifs)

  private val adjacency = new AdjacencyTracker
  // Unassigned motif-label vertices first seen on non-motif edges, in
  // first-seen order (placed at eviction via their matches, or at finish()).
  private val deferred = scala.collection.mutable.LinkedHashSet.empty[VId]

  private def deferOrPlace(v: VId, label: String): Unit =
    if (!state.isAssigned(v)) {
      if (motifs.motifLabels.contains(label)) deferred += v
      else ldgPlace(v)
    }

  /** Count of eviction rounds run (exposed for tests/benches). */
  var evictions: Long = 0L

  /** Evictions with no positive bid, decided by the cluster's LDG choice. */
  var zeroBidEvictions: Long = 0L

  /** Edges assigned immediately via LDG (non-motif edges). */
  var ldgEdges: Long = 0L

  /** Vertices assigned through equal opportunism. */
  var eoVertices: Long = 0L

  override def add(e: LEdge): Unit = {
    adjacency.add(e)
    matcher.singleEdgeMotif(e) match {
      case None =>
        // Never part of any motif match: the edge is accounted immediately
        // (§3) and does not displace the window. In a vertex-centric
        // partitioning, though, it must not *pre-empt* the placement of an
        // endpoint whose label can still join motif matches (e.g. a Paper
        // first seen on a citation edge, whose authorship edges are yet to
        // stream in): such endpoints are deferred — equal opportunism will
        // place them when their matches evict, or finish() falls back to
        // LDG with full adjacency. Labels outside every motif are placed
        // with LDG right away, as in the paper.
        ldgEdges += 1
        deferOrPlace(e.u, e.uLabel)
        deferOrPlace(e.v, e.vLabel)
      case Some(node) =>
        if (matcher.windowSize >= windowCapacity) evictOldest()
        matcher.insert(e, node)
    }
  }

  override def finish(): Unit = {
    while (matcher.windowSize > 0) evictOldest()
    // Deferred vertices whose motif edges never materialised: LDG placement
    // with the full adjacency seen over the stream.
    deferred.foreach(ldgPlace)
    deferred.clear()
  }

  /** Evict the oldest window edge via equal opportunism (§4). */
  private def evictOldest(): Unit = {
    val eOld = matcher.oldestEdge.getOrElse(return)
    evictions += 1
    val mE = matcher.matchesContaining(eOld)
    if (mE.isEmpty) {
      // Defensive: cannot happen (the single-edge match lives as long as the
      // edge) but never leave the window stuck.
      ldgPlace(eOld.u); ldgPlace(eOld.v)
      matcher.removeEdges(Set(eOld))
      return
    }
    // Per-eviction memo of LDG-style neighbour counts for the cluster's
    // vertices (matches overlap heavily; compute each vertex once).
    val nMemo = scala.collection.mutable.Map.empty[VId, Array[Int]]
    def neighbourN(v: VId, pid: Int): Int =
      nMemo.getOrElseUpdate(v, adjacency.neighbourCounts(v, state))(pid)
    val alloc = EqualOpportunism.allocate(state, mE, neighbourN)
    if (alloc.fallback) zeroBidEvictions += 1
    val assignedEdges = alloc.chosen.iterator.flatMap(_.edges).toSet
    val assignedVerts = alloc.chosen.iterator.flatMap(_.vertices).toSet
    assignedVerts.foreach { v =>
      if (!state.isAssigned(v)) { state.assign(v, alloc.winner); eoVertices += 1 }
    }
    // Matches not chosen are dropped implicitly: they all contain eOld,
    // which leaves the window now.
    matcher.removeEdges(assignedEdges)
  }

  /** LDG placement for a single vertex (used for non-motif edges, §4). */
  private def ldgPlace(v: VId): Unit = LdgPartitioner.place(state, adjacency, v)
}

object LoomPartitioner {

  /** Capacity slack b: each partition's capacity is b·n/k (the paper's 1.1,
    * emulating Fennel's ν); equal opportunism's ration is 0 at capacity.
    */
  val CapacitySlack: Double = 1.1
}

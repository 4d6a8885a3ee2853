package repro.core

import repro.core.Model._
import repro.partition.{AdjacencyTracker, GreedyPartitioner, IntBuffer, PartitionState, StreamingPartitioner}

/** Loom: the paper's workload-aware streaming partitioner (§1.4, §3, §4).
  *
  * Pipeline per stream edge e:
  *   1. If e cannot match any single-edge motif of the workload's TPSTry++,
  *      it can never be part of a motif match — never buffer it, and
  *      assign the endpoints whose labels are in no motif immediately
  *      with LDG (§3).
  *   2. Otherwise insert e into the sliding window P_temp, growing/joining
  *      motif matches via the [[MotifMatcher]]. If the window is full, first
  *      evict the oldest edge: its support-sorted motif matches go through
  *      [[EqualOpportunism]] and the winning partition receives the rationed
  *      prefix of matches wholly (all their unassigned vertices), after
  *      which those edges leave the window (§4).
  *   3. At stream end, `finish()` drains the window the same way, then
  *      places the motif-label vertices still unassigned with LDG.
  */
final class LoomPartitioner(
    k: Int,
    nExpected: Long,
    motifs: MotifIndex,
    val windowCapacity: Int
) extends StreamingPartitioner {
  require(windowCapacity >= 1, "window capacity must be >= 1")

  override val name = "Loom"
  override val state = PartitionState.withSlack(k, nExpected)

  val matcher = new MotifMatcher(motifs)

  private val adjacency = new AdjacencyTracker

  /** Count of eviction rounds run (exposed for tests/benches). */
  var evictions: Long = 0L

  /** Evictions with no positive bid, decided by the cluster's LDG choice. */
  var zeroBidEvictions: Long = 0L

  /** Edges assigned immediately via LDG (non-motif edges). */
  var ldgEdges: Long = 0L

  /** Vertices assigned through equal opportunism. */
  var eoVertices: Long = 0L

  override def add(e: LEdge): Unit = {
    val u = state.ids.id(e.u)
    val v = state.ids.id(e.v)
    adjacency.add(u, v)
    // Labels are looked up, never registered: a label outside the workload
    // is -1, so its edge is never a motif edge.
    val lu   = motifs.label(e.uLabel)
    val lv   = motifs.label(e.vLabel)
    val node = motifs.singleEdge(lu, lv)
    if (node < 0) {
      // Never part of any motif match: the edge is accounted immediately
      // (§3) and does not displace the window. In a vertex-centric
      // partitioning, though, it must not *pre-empt* the placement of an
      // endpoint whose label can still join motif matches (e.g. a Paper
      // first seen on a citation edge, whose authorship edges are yet to
      // stream in): such endpoints stay unassigned — equal opportunism will
      // place them when their matches evict, or finish() falls back to
      // LDG with full adjacency. Labels outside every motif are placed
      // with LDG right away, as in the paper.
      ldgEdges += 1
      if (!motifs.isMotifLabel(lu)) ldgPlace(u)
      if (!motifs.isMotifLabel(lv)) ldgPlace(v)
    } else {
      if (matcher.windowSize >= windowCapacity) evictOldest()
      matcher.insert(u, lu, v, lv, node)
    }
  }

  override def finish(): Unit = {
    while (matcher.windowSize > 0) evictOldest()
    // The drain placed every vertex of a window edge, so the vertices left
    // are motif-label vertices seen only on non-motif edges, each left
    // unassigned since it was first seen. LDG places them in first-seen
    // (dense-id) order, with the full adjacency seen over the stream.
    for (v <- 0 until state.ids.size) ldgPlace(v)
  }

  // Per-eviction memo of LDG-style neighbour counts for the cluster's
  // vertices (matches overlap heavily; compute each vertex once): vertex v's
  // counts sit at memo(memoSlot(v) * k) while memoRound(v) is this round.
  private var round     = 0
  private var memoRound = Array.emptyIntArray
  private var memoSlot  = Array.emptyIntArray
  private var memo      = new Array[Int](16 * k)
  private var memoUsed  = 0

  private val neighbourN: (Int, Int) => Int = (v, pid) => {
    if (v >= memoRound.length) {
      val n = math.max(2 * memoRound.length, v + 1)
      memoRound = java.util.Arrays.copyOf(memoRound, n)
      memoSlot = java.util.Arrays.copyOf(memoSlot, n)
    }
    if (memoRound(v) != round) {
      if ((memoUsed + 1) * k > memo.length) memo = java.util.Arrays.copyOf(memo, 2 * memo.length)
      System.arraycopy(adjacency.neighbourCounts(v, state), 0, memo, memoUsed * k, k)
      memoRound(v) = round
      memoSlot(v) = memoUsed
      memoUsed += 1
    }
    memo(memoSlot(v) * k + pid)
  }

  private val chosenEdges = new IntBuffer

  /** Evict the oldest window edge via equal opportunism (§4). */
  private def evictOldest(): Unit = {
    val eOld = matcher.oldest
    if (eOld < 0) return
    evictions += 1
    val mE = matcher.containing(eOld)
    round += 1
    memoUsed = 0
    val alloc = EqualOpportunism.allocate(state, mE, neighbourN)
    if (alloc.fallback) zeroBidEvictions += 1
    chosenEdges.clear()
    alloc.chosen.foreach { i =>
      for (j <- 0 until mE.vertexCount(i)) {
        val v = mE.vertex(i, j)
        if (!state.isAssignedId(v)) { state.assignId(v, alloc.winner); eoVertices += 1 }
      }
      for (j <- 0 until mE.size(i)) chosenEdges += mE.edge(i, j)
    }
    // Matches not chosen are dropped implicitly: they all contain eOld,
    // which leaves the window now.
    for (j <- 0 until chosenEdges.size) matcher.removeEdge(chosenEdges(j))
  }

  /** LDG placement for a single vertex, if unassigned (used for non-motif
    * edges, §4).
    */
  private def ldgPlace(v: Int): Unit = GreedyPartitioner.place(state, adjacency, v, GreedyPartitioner.Ldg)
}

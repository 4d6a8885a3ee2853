package repro.core

import repro.partition.{IntBuffer, IntLists}

/** Graph-stream motif matcher (paper §3, Alg. 2).
  *
  * Maintains the sliding window P_temp and the motif-matching sub-graphs in
  * it. Each time a motif-compatible edge enters the window, existing matches
  * are grown by the new edge, and pairs of matches meeting at the edge's
  * endpoints are joined — both purely via factor deltas against the
  * (motif-filtered) TPSTry++, never via explicit isomorphism tests.
  *
  * Growth and joining only ever consult matches that are still below the
  * largest motif size (a maxed-out match can neither grow nor absorb
  * another), so those are indexed separately per vertex; and the join step
  * pairs only matches containing the new edge with the rest — pairs of two
  * pre-existing matches were joinable before the edge arrived and were
  * handled then.
  *
  * '''Interface.''' The matcher speaks only primitive ids: the caller
  * passes each edge's dense endpoint ids (its [[repro.partition.VertexIds]]),
  * their label ids ([[MotifIndex.label]]) and the single-edge motif of the
  * label pair ([[MotifIndex.singleEdge]]); it reads a window edge's matches
  * back through [[containing]] and the edge's endpoints through [[edgeU]] and
  * [[edgeV]]. An edge id is the edge's arrival number, from 0 for a fresh
  * matcher, so a caller that keeps its stream can decode an id itself.
  *
  * '''Duplicates.''' Every inserted edge is an edge: a repeat of a window
  * edge, exact or reversed, enters the window as a second edge with its own
  * id and its own matches, as a repeated edge counts again in Hash, LDG,
  * Fennel and [[repro.partition.AdjacencyTracker]].
  *
  * '''Representation.''' Everything is a primitive id:
  *   - vertices and labels are the caller's ids, motif nodes the ids of
  *     [[MotifIndex]];
  *   - the window is a ring of edge ids, oldest first, whose removed entries
  *     are skipped lazily;
  *   - a match is a block of ints in a ring indexed by match id (its
  *     registration number): its node, its edge ids in insertion order, and
  *     its vertices with their degrees in the match, so a factor delta costs
  *     O(match size) and allocates nothing;
  *   - each window edge lists the matches containing it, and each vertex its
  *     growable matches, both in registration order; a removed match stays
  *     in these lists until a scan or a full list drops it;
  *   - live matches are deduplicated by their edge-id set through the edge
  *     lists: a live match with a candidate's edge set contains each of the
  *     candidate's edges, so it is in the shortest of their lists.
  *
  * '''Orders.''' Loom's partitioning depends on four orders, which this
  * representation keeps: [[containing]] returns matches in registration
  * order; growth and joining visit u's growable matches, then those of v
  * not at u, each in registration order; a join adds the smaller match's
  * edges in its insertion order; and a match's edges keep the order in which
  * they were added.
  */
final class MotifMatcher(val motifs: MotifIndex) {

  private val coder = motifs.coder
  private val maxE  = motifs.maxMotifEdges
  require(maxE <= 30, s"motifs of up to 30 edges are supported, got $maxE")
  private val maxV = maxE + 1

  // Match block layout (in the match ring and in the scratch levels): live
  // flag, motif node, edge and vertex counts, then edges, vertices and
  // degrees.
  private val Live   = 0
  private val Node   = 1
  private val NE     = 2
  private val NV     = 3
  private val Edges  = 4
  private val Verts  = Edges + maxE
  private val Degs   = Verts + maxV
  private val stride = Degs + maxV

  // Edge block layout: endpoints, labels, whether still in the window, and
  // the match count when it arrived. The ring's list of an edge holds the
  // matches containing it.
  private val EU = 0; private val EV = 1; private val ELu = 2; private val ELv = 3
  private val ELive = 4; private val EFirst = 5

  private val edges     = new Ring(6)
  private var head      = 0 // oldest window edge; every edge below it is gone
  private var nextEdge  = 0
  private var liveEdges = 0

  private val matches     = new Ring(stride)
  private var lowMatch    = 0 // every live match id is at least this
  private var nextMatch   = 0
  private var liveMatches = 0

  private val growable = new IntLists

  // Scratch: match blocks under construction (level d of a join's growth),
  // growable matches at an edge's endpoints, those containing the edge, and
  // the edges a join still has to add.
  private val level = new Array[Int]((maxE + 2) * stride)
  private val all   = new IntBuffer
  private val withE = new IntBuffer
  private val rem   = new Array[Int](math.max(1, maxE))

  private val alive: Int => Boolean = id => id >= lowMatch && matches.data(matches.at(id) + Live) == 1
  private def edgeLive(e: Int): Boolean =
    e >= head && e < nextEdge && edges.data(edges.at(e) + ELive) == 1

  def windowSize: Int = liveEdges
  def matchCount: Int = liveMatches

  /** The oldest window edge's id, or -1 if the window is empty. */
  def oldest: Int = if (liveEdges == 0) -1 else head

  /** Dense endpoint ids of window edge `e`. */
  def edgeU(e: Int): Int = edges.data(edges.at(e) + EU)
  def edgeV(e: Int): Int = edges.data(edges.at(e) + EV)

  /** Insert a motif-compatible edge (dense endpoints `u`, `v` with label
    * ids `lu`, `lv`) into the window, discovering all new motif matches it
    * creates (Alg. 2). `node` is the single-edge motif of its label pair
    * ([[MotifIndex.singleEdge]]). The edge's id is its arrival number.
    *
    * Returns the number of matches added.
    */
  def insert(u: Int, lu: Int, v: Int, lv: Int, node: Int): Int = {
    val e = nextEdge
    edges.reserve(head, e)
    val b = edges.at(e)
    val d = edges.data
    d(b + EU) = u; d(b + EV) = v; d(b + ELu) = lu; d(b + ELv) = lv
    d(b + ELive) = 1; d(b + EFirst) = nextMatch
    edges.lists.clear(e & edges.mask)
    nextEdge += 1
    liveEdges += 1

    var added = 0
    level(Live) = 1; level(Node) = -1; level(NE) = 0; level(NV) = 0
    extend(level, 0, 0, e, node)
    if (register(0)) added += 1

    // Grow existing (growable) matches at e's endpoints by the single edge e.
    collectGrowable(u, v)
    var i = 0
    while (i < all.size) {
      val mb = matches.at(all(i))
      if (!hasEdge(matches.data, mb, e)) {
        val c = motifs.child(matches.data(mb + Node), facOf(matches.data, mb, e))
        if (c >= 0) {
          extend(matches.data, mb, 0, e, c)
          if (register(0)) added += 1
        }
      }
      i += 1
    }

    // Join pairs of matches meeting at e: grow the larger by the smaller's
    // edges, following motif links in the trie (Alg. 2 lines 11–18). Any
    // match that is new at this step must contain e — pairs of two pre-
    // existing matches were joinable when their own last edge arrived.
    collectGrowable(u, v)
    withE.clear()
    i = 0
    while (i < all.size) {
      if (hasEdge(matches.data, matches.at(all(i)), e)) withE += all(i)
      i += 1
    }
    i = 0
    while (i < withE.size) {
      var k = 0
      while (k < all.size) {
        val m1 = withE(i)
        val m2 = all(k)
        if (m1 != m2) {
          val big   = if (size(m1) >= size(m2)) m1 else m2
          val small = if (big == m1) m2 else m1
          val sb    = matches.at(small)
          val bb    = matches.at(big)
          var n     = 0
          var x     = 0
          while (x < matches.data(sb + NE)) {
            val ex = matches.data(sb + Edges + x)
            if (!hasEdge(matches.data, bb, ex)) { rem(n) = ex; n += 1 }
            x += 1
          }
          if (n > 0 && size(big) + n <= maxE) {
            System.arraycopy(matches.data, bb, level, stride, stride)
            added += grow(1, n, 0)
          }
        }
        k += 1
      }
      i += 1
    }
    added
  }

  private def size(m: Int): Int = matches.data(matches.at(m) + NE)

  /** Add the unused edges of `rem(0 until n)` one at a time to the match at
    * level `d`, registering every motif match found along the way
    * (intermediate matches are genuine matches — each step followed a motif
    * link). `used` has bit i set once rem(i) is in the match.
    */
  private def grow(d: Int, n: Int, used: Int): Int = {
    var added = 0
    val off   = d * stride
    var i     = 0
    while (i < n) {
      if ((used & (1 << i)) == 0) {
        val e2 = rem(i)
        if (level(off + NE) < maxE && incident(level, off, e2)) {
          val c = motifs.child(level(off + Node), facOf(level, off, e2))
          if (c >= 0) {
            extend(level, off, d + 1, e2, c)
            if (register(d + 1)) added += 1
            // Recurse even on a duplicate: a different `rem` may extend it.
            added += grow(d + 1, n, used | (1 << i))
          }
        }
      }
      i += 1
    }
    added
  }

  // ---- match blocks ----

  private def hasEdge(a: Array[Int], off: Int, e: Int): Boolean = {
    var j = 0
    while (j < a(off + NE) && a(off + Edges + j) != e) j += 1
    j < a(off + NE)
  }

  /** Degree of dense vertex x in the match block at `off` (0 if absent). */
  private def degree(a: Array[Int], off: Int, x: Int): Int = {
    var j = 0
    while (j < a(off + NV)) {
      if (a(off + Verts + j) == x) return a(off + Degs + j)
      j += 1
    }
    0
  }

  private def incident(a: Array[Int], off: Int, e: Int): Boolean =
    a(off + NE) == 0 || degree(a, off, edgeU(e)) > 0 || degree(a, off, edgeV(e)) > 0

  /** Packed fac(e, g) for window edge e and the match block g at `off`. */
  private def facOf(a: Array[Int], off: Int, e: Int): Int = {
    val b = edges.at(e)
    val d = edges.data
    coder.fac(d(b + ELu), degree(a, off, d(b + EU)), d(b + ELv), degree(a, off, d(b + EV)))
  }

  /** Scratch level `to` := the block at `off` of `a` plus edge e, at node `node`. */
  private def extend(a: Array[Int], off: Int, to: Int, e: Int, node: Int): Unit = {
    val t = to * stride
    if ((a ne level) || off != t) System.arraycopy(a, off, level, t, stride)
    level(t + Node) = node
    level(t + Edges + level(t + NE)) = e
    level(t + NE) += 1
    addVertex(t, edgeU(e))
    addVertex(t, edgeV(e))
  }

  private def addVertex(t: Int, x: Int): Unit = {
    var j = 0
    while (j < level(t + NV) && level(t + Verts + j) != x) j += 1
    if (j < level(t + NV)) level(t + Degs + j) += 1
    else {
      level(t + Verts + j) = x
      level(t + Degs + j) = 1
      level(t + NV) += 1
    }
  }

  /** Fill `all` with the live growable matches at u, then those at v that
    * do not contain u, each in registration order.
    */
  private def collectGrowable(u: Int, v: Int): Unit = {
    all.clear()
    growable.retain(u, alive)
    var i = 0
    while (i < growable.length(u)) { all += growable.array(u)(i); i += 1 }
    growable.retain(v, alive)
    i = 0
    while (i < growable.length(v)) {
      val m = growable.array(v)(i)
      if (degree(matches.data, matches.at(m), u) == 0) all += m
      i += 1
    }
  }

  // ---- registration ----

  /** True if match m has exactly the edges of the block at `off`. */
  private def sameEdges(m: Int, a: Array[Int], off: Int): Boolean = {
    val mb = matches.at(m)
    if (matches.data(mb + NE) != a(off + NE)) false
    else {
      var j = 0
      while (j < a(off + NE) && hasEdge(matches.data, mb, a(off + Edges + j))) j += 1
      j == a(off + NE)
    }
  }

  /** Register the match at scratch level `lvl` unless a live match has the
    * same edge set; true if it is new. Such a match would be in every list
    * of the candidate's edges, so only the shortest one is scanned.
    */
  private def register(lvl: Int): Boolean = {
    val off   = lvl * stride
    var short = level(off + Edges) & edges.mask
    var j     = 1
    while (j < level(off + NE)) {
      val s = level(off + Edges + j) & edges.mask
      if (edges.lists.length(s) < edges.lists.length(short)) short = s
      j += 1
    }
    j = 0
    while (j < edges.lists.length(short)) {
      val m = edges.lists.array(short)(j)
      if (alive(m) && sameEdges(m, level, off)) return false
      j += 1
    }
    val id = nextMatch
    matches.reserve(lowMatch, id)
    System.arraycopy(level, off, matches.data, matches.at(id), stride)
    nextMatch += 1
    liveMatches += 1
    j = 0
    while (j < level(off + NE)) {
      edges.lists.appendLive(level(off + Edges + j) & edges.mask, id, alive)
      j += 1
    }
    if (level(off + NE) < maxE) {
      j = 0
      while (j < level(off + NV)) { growable.appendLive(level(off + Verts + j), id, alive); j += 1 }
    }
    true
  }

  // ---- eviction ----

  /** The live matches containing one window edge, in registration order, as
    * equal opportunism reads them. Valid until the matcher next changes.
    */
  final class Cluster extends EqualOpportunism.Matches {
    private[MotifMatcher] val ids = new IntBuffer
    private def at(i: Int): Int   = matches.at(ids(i))

    def count: Int                    = ids.size
    def id(i: Int): Int               = ids(i)
    def support(i: Int): Double       = motifs.support(matches.data(at(i) + Node))
    def size(i: Int): Int             = matches.data(at(i) + NE)
    def edge(i: Int, j: Int): Int     = matches.data(at(i) + Edges + j)
    def vertexCount(i: Int): Int      = matches.data(at(i) + NV)
    def vertex(i: Int, j: Int): Int   = matches.data(at(i) + Verts + j)
  }

  private val cluster = new Cluster

  /** All live matches that contain window edge e, in registration order. */
  def containing(e: Int): Cluster = {
    cluster.ids.clear()
    if (edgeLive(e)) {
      val slot = e & edges.mask
      edges.lists.retain(slot, alive)
      var i = 0
      while (i < edges.lists.length(slot)) { cluster.ids += edges.lists.array(slot)(i); i += 1 }
    }
    cluster
  }

  /** Remove window edge e (it has been assigned to a permanent partition)
    * and every match containing it; a no-op if e already left the window.
    */
  def removeEdge(e: Int): Unit = if (edgeLive(e)) {
    val b    = edges.at(e)
    val d    = edges.data
    val slot = e & edges.mask
    var i    = 0
    while (i < edges.lists.length(slot)) {
      val m = edges.lists.array(slot)(i)
      if (alive(m)) { matches.data(matches.at(m) + Live) = 0; liveMatches -= 1 }
      i += 1
    }
    edges.lists.clear(slot)
    d(b + ELive) = 0
    liveEdges -= 1
    while (head < nextEdge && d(edges.at(head) + ELive) == 0) head += 1
    lowMatch = if (head < nextEdge) d(edges.at(head) + EFirst) else nextMatch
  }
}

/** Fixed-stride `Int` blocks for the ids of a sliding range [low, next): id
  * i lives at `at(i)`, in slot `i & mask`, with an `Int` list per slot.
  * Doubles, moving the range's blocks and lists, when the range would
  * outgrow it.
  */
private final class Ring(stride: Int) {
  var data  = new Array[Int](16 * stride)
  var lists = new IntLists
  var mask  = 15

  def at(id: Int): Int = (id & mask) * stride

  /** Make room for id `next` while keeping ids [low, next). */
  def reserve(low: Int, next: Int): Unit = {
    require(next < Int.MaxValue, "id space exhausted")
    if (next - low > mask) {
      val (d, l, m) = (data, lists, mask)
      mask = 2 * m + 1
      data = new Array[Int]((mask + 1) * stride)
      lists = new IntLists
      var id = low
      while (id < next) {
        System.arraycopy(d, (id & m) * stride, data, at(id), stride)
        lists.adopt(id & mask, l, id & m)
        id += 1
      }
    }
  }
}

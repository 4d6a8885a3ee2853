package repro.loombench

import scala.collection.mutable
import repro.core.Model._

/** Reference ipt scorer, independent of `repro.engine`.
  *
  * Built once per graph and workload: it enumerates the distinct matches of
  * every workload pattern outside Spark and turns them into per-edge
  * traversal counts c_q(e) = #{distinct matches of q that contain e}. A
  * partitioning P is then scored per query as
  *
  *   ipt_q(P) = Σ_e c_q(e)·[P(x_e) ≠ P(y_e)],
  *
  * which is exactly what `IptEvaluator` computes by exploding each distinct
  * match into its edges and counting the crossing ones. The weighted total
  * is Σ_q f_q·ipt_q, summed in workload order.
  *
  * Enumeration is backtracking over a dense CSR copy of the graph, pattern
  * vertices in BFS order. Each distinct match has one embedding per
  * automorphism of q; only the embedding that is lexicographically smallest
  * in its automorphism orbit is kept, so every match is counted once.
  */
final class RefScorer(graph: IndexedSeq[LEdge], workload: Workload) {
  import RefScorer._

  private val vIndex = mutable.LongMap.empty[Int]
  private val vIds   = mutable.ArrayBuffer.empty[VId]
  private val vLabel = mutable.ArrayBuffer.empty[Int]
  private val labelIds = mutable.HashMap.empty[String, Int]

  private def vertex(v: VId, label: String): Int =
    vIndex.getOrElseUpdate(v, {
      vIds += v
      vLabel += labelIds.getOrElseUpdate(label, labelIds.size)
      vIds.size - 1
    })

  private val m  = graph.size
  private val ex = new Array[Int](m)
  private val ey = new Array[Int](m)
  graph.iterator.zipWithIndex.foreach { case (e, i) =>
    ex(i) = vertex(e.u, e.uLabel)
    ey(i) = vertex(e.v, e.vLabel)
  }
  private val n      = vIds.size
  private val labels = vLabel.toArray

  // CSR adjacency: the neighbours of a are nbr(off(a) until off(a + 1)),
  // reached through edge nbrEdge(same index).
  private val off = new Array[Int](n + 1)
  private val nbr     = new Array[Int](2 * m)
  private val nbrEdge = new Array[Int](2 * m)
  locally {
    var i = 0
    while (i < m) { off(ex(i) + 1) += 1; off(ey(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val fill = off.clone()
    i = 0
    while (i < m) {
      nbr(fill(ex(i))) = ey(i); nbrEdge(fill(ex(i))) = i; fill(ex(i)) += 1
      nbr(fill(ey(i))) = ex(i); nbrEdge(fill(ey(i))) = i; fill(ey(i)) += 1
      i += 1
    }
  }
  private val edgeOf = mutable.LongMap.empty[Int]
  locally {
    var i = 0
    while (i < m) { edgeOf(pairKey(ex(i), ey(i))) = i; i += 1 }
  }

  /** Per query: distinct match count and per-edge traversal counts. */
  private val perQuery: Vector[(Long, Array[Long])] =
    workload.queries.map { case (q, _) => enumerate(q) }

  /** Number of distinct matches of each workload query. */
  def matchCounts: Vector[Long] = perQuery.map(_._1)

  def totalMatches: Long = matchCounts.sum

  /** Non-zero traversal counts of query `qi`, keyed by canonical data edge. */
  def edgeCounts(qi: Int): Map[(VId, VId), Long] = {
    val cnt = perQuery(qi)._2
    (0 until m).iterator.filter(cnt(_) > 0).map { i =>
      val (a, b) = (vIds(ex(i)), vIds(ey(i)))
      (math.min(a, b), math.max(a, b)) -> cnt(i)
    }.toMap
  }

  /** ipt of every workload query under the partitioning `pmap`. An edge
    * with an unassigned endpoint never crosses, as in an inner join.
    */
  def score(pmap: collection.Map[VId, Int]): Result = {
    val pid = Array.tabulate(n)(i => pmap.getOrElse(vIds(i), -1))
    val crossing = new Array[Boolean](m)
    var i = 0
    while (i < m) {
      val (a, b) = (pid(ex(i)), pid(ey(i)))
      crossing(i) = a >= 0 && b >= 0 && a != b
      i += 1
    }
    Result(workload.queries.zip(perQuery).zipWithIndex.map { case (((_, f), (cnt, w)), qi) =>
      var ipt = 0L
      var j   = 0
      while (j < m) { if (crossing(j)) ipt += w(j); j += 1 }
      QueryIpt(qi, f, cnt, ipt)
    })
  }

  private def enumerate(q: QueryGraph): (Long, Array[Long]) = {
    val weights = new Array[Long](m)
    val qLabels = q.labels.map(l => labelIds.getOrElse(l, -1)).toArray
    if (qLabels.contains(-1)) return (0L, weights)
    val plan  = Plan(q)
    val autos = automorphisms(q).filterNot(s => s.indices.forall(i => s(i) == i))
    val k     = q.numVertices
    val phi   = Array.fill(k)(-1)
    val used  = new Array[Boolean](n)
    val edges = new Array[Int](q.numEdges)
    var count = 0L

    // Keep phi only if no automorphism maps it to a lexicographically
    // smaller embedding of the same match.
    def canonical: Boolean = autos.forall { s =>
      var i = 0
      while (i < k && phi(s(i)) == phi(i)) i += 1
      i == k || phi(s(i)) > phi(i)
    }

    def rec(j: Int): Unit =
      if (j == k) {
        if (canonical) {
          count += 1
          edges.foreach(e => weights(e) += 1)
        }
      } else {
        val pv = plan.order(j)
        def tryVertex(w: Int, treeEdge: Int): Unit =
          if (labels(w) == qLabels(pv) && !used(w)) {
            if (treeEdge >= 0) edges(plan.treeEdge(j)) = treeEdge
            val closes = plan.closing(j).forall { case (pe, other) =>
              edgeOf.get(pairKey(w, phi(other))) match {
                case Some(e) => edges(pe) = e; true
                case None    => false
              }
            }
            if (closes) {
              phi(pv) = w; used(w) = true
              rec(j + 1)
              phi(pv) = -1; used(w) = false
            }
          }
        if (j == 0) {
          var w = 0
          while (w < n) { tryVertex(w, -1); w += 1 }
        } else {
          val from = phi(plan.parent(j))
          var i    = off(from)
          while (i < off(from + 1)) { tryVertex(nbr(i), nbrEdge(i)); i += 1 }
        }
      }

    rec(0)
    (count, weights)
  }
}

object RefScorer {

  final case class QueryIpt(queryIndex: Int, frequency: Double, matchCount: Long, ipt: Long) {
    def weightedIpt: Double = frequency * ipt
  }

  final case class Result(perQuery: Vector[QueryIpt]) {
    def totalWeightedIpt: Double = perQuery.map(_.weightedIpt).sum
    def totalMatches: Long       = perQuery.map(_.matchCount).sum
  }

  private def pairKey(a: Int, b: Int): Long =
    (math.min(a, b).toLong << 32) | math.max(a, b).toLong

  /** Visit order of a connected pattern: BFS from vertex 0. For position
    * j > 0, `parent(j)` is the already-placed neighbour reached through
    * pattern edge `treeEdge(j)`; `closing(j)` lists the other pattern edges
    * (index, far end) back into the placed prefix.
    */
  private final case class Plan(order: Array[Int], parent: Array[Int], treeEdge: Array[Int],
                                closing: Array[Vector[(Int, Int)]])

  private object Plan {
    def apply(q: QueryGraph): Plan = {
      val k        = q.numVertices
      val order    = mutable.ArrayBuffer(0)
      val parent   = mutable.ArrayBuffer(-1)
      val treeEdge = mutable.ArrayBuffer(-1)
      var head     = 0
      while (head < order.size) {
        val v = order(head)
        q.edges.zipWithIndex.foreach { case ((a, b), pe) =>
          val w = if (a == v) b else if (b == v) a else -1
          if (w >= 0 && !order.contains(w)) { order += w; parent += v; treeEdge += pe }
        }
        head += 1
      }
      require(order.size == k, "reference scoring needs connected patterns")
      val pos = Array.fill(k)(0)
      order.zipWithIndex.foreach { case (v, j) => pos(v) = j }
      val closing = Array.tabulate(k) { j =>
        q.edges.zipWithIndex.collect {
          case ((a, b), pe) if pe != treeEdge(j) && pos(a) <= j && pos(b) <= j &&
                               (pos(a) == j || pos(b) == j) =>
            (pe, if (pos(a) == j) b else a)
        }
      }
      Plan(order.toArray, parent.toArray, treeEdge.toArray, closing)
    }
  }

  /** All label- and edge-preserving permutations of q's vertices. */
  def automorphisms(q: QueryGraph): Vector[Array[Int]] = {
    val k     = q.numVertices
    val edges = q.edges.map { case (a, b) => (math.min(a, b), math.max(a, b)) }.toSet
    val out   = Vector.newBuilder[Array[Int]]
    val s     = Array.fill(k)(-1)
    def rec(i: Int): Unit =
      if (i == k) out += s.clone()
      else (0 until k).foreach { t =>
        if (!s.take(i).contains(t) && q.labels(t) == q.labels(i) &&
            q.degree(t) == q.degree(i)) {
          s(i) = t
          val ok = (0 until i).forall { j =>
            edges.contains((math.min(i, j), math.max(i, j))) ==
              edges.contains((math.min(t, s(j)), math.max(t, s(j))))
          }
          if (ok) rec(i + 1)
          s(i) = -1
        }
      }
    rec(0)
    out.result()
  }
}

package repro.core

/** Core data model for the Loom reproduction.
  *
  * Graphs are undirected and vertex-labelled (paper §1.3): an online graph is
  * a sequence of labelled edges; a pattern-matching query is a small labelled
  * pattern graph; a workload is a multiset of patterns with frequencies.
  */
object Model {

  /** Vertex identifier in a data graph. */
  type VId = Long

  /** An undirected, vertex-labelled edge of the data graph stream.
    *
    * Labels ride along with the edge because in the streaming model the
    * partitioner may see a vertex for the first time on any edge.
    */
  final case class LEdge(u: VId, uLabel: String, v: VId, vLabel: String) {
    require(u != v, s"self-loops are not supported: $u")

    /** Endpoints as a pair, smaller id first (canonical form). */
    def canonical: (VId, VId) = if (u <= v) (u, v) else (v, u)

    /** True if `x` is one of this edge's endpoints. */
    def contains(x: VId): Boolean = x == u || x == v
  }

  /** A small labelled pattern graph (query graph, paper §1.3).
    *
    * Pattern vertices are integers `0 until numVertices`; `labels(i)` is the
    * label of pattern vertex i; `edges` are undirected pairs of pattern
    * vertex indices. Every vertex lies on an edge.
    */
  final case class QueryGraph(labels: Vector[String], edges: Vector[(Int, Int)]) {
    require(edges.nonEmpty, "a query graph must have at least one edge")
    edges.foreach { case (a, b) =>
      require(a != b, "query graphs may not contain self-loops")
      require(a >= 0 && a < labels.size && b >= 0 && b < labels.size,
              s"edge ($a,$b) out of range for ${labels.size} vertices")
    }
    require(edges.flatMap { case (a, b) => Vector(a, b) }.distinct.size == labels.size,
            "every query vertex must lie on an edge")

    def numVertices: Int = labels.size
    def numEdges: Int    = edges.size

    /** Degree of pattern vertex i. */
    def degree(i: Int): Int = edges.count { case (a, b) => a == i || b == i }

    /** This pattern's edges as label pairs (sorted within the pair). */
    def edgeLabelPairs: Vector[(String, String)] =
      edges.map { case (a, b) =>
        val (la, lb) = (labels(a), labels(b))
        if (la <= lb) (la, lb) else (lb, la)
      }

    /** This pattern's edges as data edges over vertex ids 0..n-1, in
      * edge-index order.
      */
    def dataEdges: Vector[LEdge] =
      edges.map { case (a, b) => LEdge(a.toLong, labels(a), b.toLong, labels(b)) }

    /** This pattern as a data sub-graph with vertex ids 0..n-1 (no vertex is
      * lost, since each lies on an edge).
      */
    def toSubGraph: SubGraph = SubGraph(dataEdges.toSet)
  }

  object QueryGraph {

    /** A single-edge pattern `la - lb`. */
    def singleEdge(la: String, lb: String): QueryGraph =
      QueryGraph(Vector(la, lb), Vector((0, 1)))

    /** A label-path pattern `l0 - l1 - ... - ln`. */
    def path(ls: String*): QueryGraph = {
      require(ls.size >= 2, "a path needs at least two labels")
      QueryGraph(ls.toVector, (0 until ls.size - 1).map(i => (i, i + 1)).toVector)
    }

    /** A star with centre label `c` and leaf labels `ls`. */
    def star(c: String, ls: String*): QueryGraph =
      QueryGraph((c +: ls).toVector, (1 to ls.size).map(i => (0, i)).toVector)

    /** A cycle over the given labels (triangle for 3 labels, etc.). */
    def cycle(ls: String*): QueryGraph = {
      require(ls.size >= 3, "a cycle needs at least three labels")
      val n = ls.size
      QueryGraph(ls.toVector, (0 until n).map(i => (i, (i + 1) % n)).toVector)
    }
  }

  /** A pattern-matching query workload: patterns with relative frequencies. */
  final case class Workload(queries: Vector[(QueryGraph, Double)]) {
    require(queries.nonEmpty, "a workload must contain at least one query")
    queries.foreach { case (_, f) => require(f > 0, "frequencies must be positive") }

    /** Sum of all query frequencies. */
    def totalFrequency: Double = queries.map(_._2).sum
  }

  /** A concrete sub-graph of the data graph: a set of labelled edges.
    *
    * Used to build the trie and to sign and check sub-graphs (the stream
    * matcher works on primitive ids instead); kept tiny because sub-graphs
    * are bounded by the largest query (order of 10 edges).
    */
  final case class SubGraph(edges: Set[LEdge]) {
    /** All vertex ids appearing in this sub-graph. */
    lazy val vertices: Set[VId] = edges.flatMap(e => Set(e.u, e.v))

    /** Degree of vertex x within this sub-graph. */
    def degree(x: VId): Int = edges.count(_.contains(x))

    /** Label of vertex x within this sub-graph. */
    def labelOf(x: VId): String =
      edges.collectFirst {
        case e if e.u == x => e.uLabel
        case e if e.v == x => e.vLabel
      }.getOrElse(throw new IllegalArgumentException(s"vertex $x not in sub-graph"))

    def size: Int                   = edges.size
    def contains(e: LEdge): Boolean = edges.contains(e)

    /** True if edge e shares a vertex with this sub-graph (or the graph is empty). */
    def incident(e: LEdge): Boolean =
      edges.isEmpty || vertices.contains(e.u) || vertices.contains(e.v)

    def +(e: LEdge): SubGraph = SubGraph(edges + e)

    /** Convert to a QueryGraph over re-indexed vertices (for iso checks). */
    def toQueryGraph: QueryGraph = {
      val vs  = vertices.toVector.sorted
      val idx = vs.zipWithIndex.toMap
      QueryGraph(vs.map(labelOf), edges.toVector.map(e => (idx(e.u), idx(e.v))))
    }
  }

  object SubGraph {
    val empty: SubGraph           = SubGraph(Set.empty[LEdge])
    def of(es: LEdge*): SubGraph  = SubGraph(es.toSet)
  }
}

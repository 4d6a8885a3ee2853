package repro.core

import repro.core.Model._

/** Exact sub-graph isomorphism by backtracking (VF2-lite).
  *
  * Used as a verification substrate: it cross-checks the probabilistic
  * signature matching (paper §2.3 claims no false negatives and a small
  * false-positive rate) and provides brute-force pattern-match enumeration
  * against which the SQL engine is validated; the engine also takes each
  * pattern's automorphisms from here. Only ever invoked on small graphs —
  * patterns are of the order of 10 edges.
  */
object NaiveIso {

  /** True iff q1 and q2 are isomorphic (label-preserving, edge-preserving):
    * an embedding of q1 into q2 is injective on vertices and maps edges to
    * edges, so with equal vertex and edge counts it is a bijection on both.
    */
  def isomorphic(q1: QueryGraph, q2: QueryGraph): Boolean =
    q1.numVertices == q2.numVertices && q1.numEdges == q2.numEdges &&
      embeddings(q1, q2.toSubGraph).nonEmpty

  /** All embeddings of pattern q into data graph g, as maps from pattern
    * vertex index to data vertex id. Injective on vertices.
    */
  def embeddings(q: QueryGraph, g: SubGraph): Vector[Map[Int, VId]] = {
    val verts  = g.vertices.toVector.sorted
    val labels = verts.map(v => v -> g.labelOf(v)).toMap
    val adj: Map[VId, Set[VId]] = {
      val m = scala.collection.mutable.Map.empty[VId, Set[VId]].withDefaultValue(Set.empty)
      g.edges.foreach { e => m(e.u) += e.v; m(e.v) += e.u }
      m.toMap.withDefaultValue(Set.empty)
    }
    def rec(mapping: Map[Int, VId], next: Int): Vector[Map[Int, VId]] =
      if (next == q.numVertices) Vector(mapping)
      else {
        val used = mapping.values.toSet
        verts.iterator
          .filter(v => !used(v) && labels(v) == q.labels(next))
          .filter { v =>
            q.edges.forall { case (a, b) =>
              val mA = if (a == next) Some(v) else mapping.get(a)
              val mB = if (b == next) Some(v) else mapping.get(b)
              (mA, mB) match {
                case (Some(x), Some(y)) => adj(x).contains(y)
                case _                  => true // not yet both mapped
              }
            }
          }
          .flatMap(v => rec(mapping + (next -> v), next + 1))
          .toVector
      }
    rec(Map.empty, 0)
  }

  /** Distinct matches (sub-graphs) of q in g: embeddings deduplicated by the
    * set of data edges they use, so automorphic re-labellings count once.
    */
  def matches(q: QueryGraph, g: SubGraph): Vector[Set[(VId, VId)]] =
    embeddings(q, g)
      .map { m =>
        q.edges.map { case (a, b) =>
          val (x, y) = (m(a), m(b))
          if (x <= y) (x, y) else (y, x)
        }.toSet
      }
      .distinct

  /** True iff q occurs as a sub-graph of the (small) pattern graph big. */
  def containedIn(q: QueryGraph, big: QueryGraph): Boolean =
    embeddings(q, big.toSubGraph).nonEmpty

  /** The automorphism group Aut(q): every label- and edge-preserving
    * permutation σ of q's vertices, as the vector (σ(0), …, σ(n-1)). An
    * embedding of q into itself is injective on n vertices and maps |E|
    * edges into |E| edges, so it is exactly such a permutation.
    */
  def automorphisms(q: QueryGraph): Vector[Vector[Int]] =
    embeddings(q, q.toSubGraph).map(m => Vector.tabulate(q.numVertices)(i => m(i).toInt))
}

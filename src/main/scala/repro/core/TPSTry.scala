package repro.core

import scala.collection.mutable
import repro.core.Model._
import repro.core.Signature._

/** TPSTry++: the Traversal Pattern Summary Trie (paper §2, Alg. 1).
  *
  * A DAG in which every node represents a connected sub-graph of some query
  * graph in the workload Q, identified by its factor-multiset signature.
  * Parent→child links are annotated with the factor *delta* added by one
  * edge, so the stream matcher (Alg. 2) can follow a link by computing
  * fac(e, g) for a candidate edge e — no explicit graph isomorphism test is
  * ever run during matching.
  *
  * `support(n)` is the fraction of workload frequency mass whose query graph
  * contains n's graph as a sub-graph; by construction it is monotonically
  * non-increasing from parent to child, so motif-ness (support ≥ threshold)
  * is antitone and the matcher may prune on the first non-motif ancestor.
  */
final class TPSTry(implicit val coder: LabelCoder) {

  /** One node of the trie-DAG. */
  final class Node private[TPSTry] (val sig: Sig, val representative: QueryGraph,
                                    val sizeEdges: Int) {
    private[TPSTry] var supportWeight: Double = 0.0
    private[TPSTry] val childLinks = mutable.LinkedHashMap.empty[Sig, Node]

    /** Child reached by adding an edge contributing factor-delta `delta`. */
    def child(delta: Sig): Option[Node] = childLinks.get(delta)

    /** All (delta, child) links out of this node. */
    def children: Vector[(Sig, Node)] = childLinks.toVector

    /** Normalised support in [0, 1] of this node's sub-graph in Q. */
    def support: Double =
      if (totalWeight == 0) 0.0 else supportWeight / totalWeight

    override def toString: String =
      s"Node(${representative.edgeLabelPairs.map { case (a, b) => s"$a-$b" }.mkString(",")}, " +
        f"supp=$support%.2f)"
  }

  /** Root of the trie: the empty graph. Its children are single-edge nodes. */
  val root: Node = new Node(Sig.empty, QueryGraph(Vector("∅", "∅"), Vector((0, 1))), 0)

  private val nodesBySig = mutable.LinkedHashMap.empty[Sig, Node]
  private var totalWeight: Double = 0.0

  /** All non-root nodes, in insertion order. */
  def nodes: Vector[Node] = nodesBySig.values.toVector

  /** Look up a node by full signature. */
  def node(sig: Sig): Option[Node] = nodesBySig.get(sig)

  /** Total workload frequency mass added so far. */
  def weight: Double = totalWeight

  /** Add a query graph with the given workload frequency (Alg. 1).
    *
    * Enumerates every connected sub-graph of q exactly once, breadth-first
    * over sub-graphs of `q.toSubGraph`, extending each by its incident edges
    * in edge-index order. A child's signature is its parent's plus
    * `fac(e, g)`, the delta the stream matcher (Alg. 2) follows, so trie and
    * stream agree by construction. Nodes merge across queries by signature;
    * support is credited once per query per distinct signature, so
    * re-derivable sub-graphs (the DAG case, e.g. a-b-a-b from both b-a-b and
    * a-b-a) do not over-count.
    */
  def add(q: QueryGraph, frequency: Double = 1.0): Unit = {
    require(frequency > 0, "frequency must be positive")
    totalWeight += frequency

    val edges        = q.dataEdges
    val creditedSigs = mutable.Set.empty[Sig]
    val visited      = mutable.Set(SubGraph.empty)
    // Queue of (connected sub-graph of q, its signature).
    val queue = mutable.Queue((SubGraph.empty, Sig.empty))

    while (queue.nonEmpty) {
      val (g, sigG) = queue.dequeue()
      val parent    = if (g.size == 0) root else nodesBySig(sigG)
      for (e <- edges if !g.contains(e) && g.incident(e)) {
        val delta   = fac(e, g)
        val next    = g + e
        val nextSig = sigG ++ delta
        val child = nodesBySig.getOrElseUpdate(nextSig, {
          new Node(nextSig, next.toQueryGraph, next.size)
        })
        parent.childLinks.getOrElseUpdate(delta, child)
        if (creditedSigs.add(nextSig)) child.supportWeight += frequency
        if (visited.add(next)) queue.enqueue((next, nextSig))
      }
    }
  }

  /** Filtered motif view at support threshold T (paper default 40%). */
  def motifIndex(threshold: Double): MotifIndex = new MotifIndex(this, threshold)
}

object TPSTry {

  /** Build a TPSTry++ for a whole workload. */
  def ofWorkload(w: Workload)(implicit coder: LabelCoder): TPSTry = {
    val t = new TPSTry
    w.queries.foreach { case (q, f) => t.add(q, f) }
    t
  }
}

/** A motif-filtered view of a TPSTry++ used by the stream matcher (§3).
  *
  * Only trie nodes with support ≥ threshold are visible; since support is
  * antitone along trie edges, the visible nodes form a prefix-closed sub-DAG.
  */
final class MotifIndex(val trie: TPSTry, val threshold: Double) {
  require(threshold > 0 && threshold <= 1, "threshold must be in (0, 1]")

  private val singleEdgeMotifs: Map[Sig, TPSTry#Node] =
    trie.root.children.collect {
      case (_, n) if n.support >= threshold => n.sig -> n
    }.toMap

  /** Motif node matched by a lone stream edge, if its label pair is a motif. */
  def matchSingleEdge(e: Model.LEdge): Option[TPSTry#Node] = {
    val sig = Signature.fac(e, Model.SubGraph.empty)(trie.coder)
    singleEdgeMotifs.get(sig)
  }

  /** Motif child of node n along factor-delta `delta`, if one exists. */
  def motifChild(n: TPSTry#Node, delta: Sig): Option[TPSTry#Node] =
    n.child(delta).filter(_.support >= threshold)

  /** All motif nodes. */
  def motifs: Vector[TPSTry#Node] = trie.nodes.filter(_.support >= threshold)

  /** Labels that occur in at least one single-edge motif: vertices with
    * these labels can still become part of a motif match later in the
    * stream.
    */
  val motifLabels: Set[String] =
    singleEdgeMotifs.values.flatMap(_.representative.labels).toSet

  /** Size in edges of the largest motif (bounds match growth). */
  def maxMotifEdges: Int = motifs.map(_.sizeEdges).maxOption.getOrElse(0)
}

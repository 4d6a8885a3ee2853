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
  *
  * The matcher reads this index through primitive tables only:
  *   - motif nodes are numbered 0 until `motifs.size`, in trie order;
  *   - each motif node's links to motif children are keyed by the
  *     [[Signature.packed]] delta (an `Int`), and so are the root's links to
  *     the single-edge motifs, in one more row: a single-edge node's
  *     signature is its root delta, so [[singleEdge]] is one [[fac]] and one
  *     lookup, and a stream edge whose delta collides with a motif's
  *     resolves to that motif;
  *   - labels are the ids of the trie's [[Signature.LabelCoder]], and `fac`
  *     takes its edge and degree factors from the coder, the functions
  *     [[Signature.fac]] calls for the trie, so trie and stream share one
  *     definition of a factor.
  */
final class MotifIndex(val trie: TPSTry, val threshold: Double) {
  require(threshold > 0 && threshold <= 1, "threshold must be in (0, 1]")
  private val coder = trie.coder
  require(coder.p <= Signature.MaxPackedFactor + 1,
          s"packed factor deltas need p < 256, got p = ${coder.p}")

  /** All motif nodes; a node's position is its id. */
  val motifs: Vector[TPSTry#Node] = trie.nodes.filter(_.support >= threshold)

  /** Size in edges of the largest motif (bounds match growth). */
  val maxMotifEdges: Int = motifs.map(_.sizeEdges).maxOption.getOrElse(0)

  private val supports: Array[Double] = motifs.map(_.support).toArray

  // Per motif node, then for the root (row `Root`): packed deltas of its
  // links to motif children, and the ids of those children.
  private val Root = motifs.size
  private val (childDeltas, childIds) = {
    val ids   = motifs.zipWithIndex.toMap
    val links = (motifs :+ trie.root).map(_.children.filter(l => ids.contains(l._2)).toArray)
    (links.map(_.map(l => Signature.packed(l._1))).toArray, links.map(_.map(l => ids(l._2))).toArray)
  }

  /** Support of motif node `n`. */
  def support(n: Int): Double = supports(n)

  /** Motif child of motif node `n` along packed delta `delta`, or -1. */
  def child(n: Int, delta: Int): Int = {
    val ds = childDeltas(n)
    var i  = 0
    while (i < ds.length && ds(i) != delta) i += 1
    if (i < ds.length) childIds(n)(i) else -1
  }

  /** Single-edge motif matched by an edge with endpoint label ids `lu`,
    * `lv`, or -1 if its label pair is not a motif.
    */
  def singleEdge(lu: Int, lv: Int): Int = child(Root, fac(lu, 0, lv, 0))

  // ---- labels and factors ----

  // Labels of the single-edge motifs, by id: vertices with these labels can
  // still become part of a motif match later in the stream. Every one was
  // registered while the trie was built.
  private val motifLabels: Array[Boolean] = {
    val a = new Array[Boolean](coder.size)
    for (n <- childIds(Root); l <- motifs(n).representative.labels) a(coder.id(l)) = true
    a
  }

  /** The coder's id of label `l`, registering it on first use. */
  def label(l: String): Int = coder.id(l)

  /** True if label `l` occurs in a single-edge motif. */
  def isMotifLabel(l: Int): Boolean = l < motifLabels.length && motifLabels(l)

  /** Packed fac(e, g) for an edge e with endpoint label ids `lu`, `lv` whose
    * endpoints have degrees `du`, `dv` in g.
    */
  def fac(lu: Int, du: Int, lv: Int, dv: Int): Int =
    Signature.packed(coder.edgeFactor(lu, lv),
                     coder.degreeFactor(lu, du + 1), coder.degreeFactor(lv, dv + 1))
}

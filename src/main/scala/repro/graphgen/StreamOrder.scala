package repro.graphgen

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.rand
import repro.core.Model._

/** The three stream orderings of the evaluation (paper §5.1): breadth-first,
  * depth-first (both computed across all connected components) and random.
  *
  * Random permutation runs in Spark (`orderBy(rand(seed))`); BFS/DFS are
  * inherently sequential traversals and run on the driver over the collected
  * edge list (our scaled graphs are ≤ ~500k edges). An edge is emitted the
  * first time the traversal crosses it, which matches "a breadth-first
  * search across all the connected components of a graph".
  */
object StreamOrder {

  sealed trait Order { def name: String }
  case object Bfs    extends Order { val name = "bfs" }
  case object Dfs    extends Order { val name = "dfs" }
  case object Random extends Order { val name = "random" }

  val all: Vector[Order] = Vector(Bfs, Random, Dfs)

  /** Collect an edge DataFrame (columns u, ul, v, vl) to driver LEdges. */
  def collectEdges(edges: DataFrame): Vector[LEdge] =
    edges.select("u", "ul", "v", "vl").collect().iterator.map { r =>
      LEdge(r.getLong(0), r.getString(1), r.getLong(2), r.getString(3))
    }.toVector

  /** Stream of `edges` in the given order, deterministic in seed. */
  def stream(edges: DataFrame, order: Order, seed: Long = 11L): Vector[LEdge] =
    order match {
      case Random => collectEdges(edges.orderBy(rand(seed)))
      case Bfs    => traverse(collectEdges(edges), depthFirst = false)
      case Dfs    => traverse(collectEdges(edges), depthFirst = true)
    }

  /** Emit edges in BFS or DFS discovery order over all components.
    *
    * Vertices are expanded from lowest id; per-vertex neighbours in sorted
    * order, so the result is deterministic for a given edge set.
    */
  private def traverse(es: Vector[LEdge], depthFirst: Boolean): Vector[LEdge] = {
    val adj = mutable.Map.empty[VId, mutable.ArrayBuffer[(VId, LEdge)]]
    es.foreach { e =>
      adj.getOrElseUpdate(e.u, mutable.ArrayBuffer.empty) += ((e.v, e))
      adj.getOrElseUpdate(e.v, mutable.ArrayBuffer.empty) += ((e.u, e))
    }
    adj.values.foreach(buf => buf.sortInPlaceBy(_._1))

    val emitted = mutable.Set.empty[(VId, VId)]
    val visited = mutable.Set.empty[VId]
    val out     = Vector.newBuilder[LEdge]

    def emit(e: LEdge): Unit = {
      val key = e.canonical
      if (emitted.add(key)) out += e
    }

    // One deque of discovered vertices: BFS expands from its front, DFS from
    // its back. Expanding u emits all edges incident to u and appends u's
    // unvisited neighbours.
    val pending = mutable.ArrayDeque.empty[VId]
    val roots   = adj.keys.toVector.sorted
    for (root <- roots if !visited.contains(root)) {
      visited += root
      pending.append(root)
      while (pending.nonEmpty) {
        val u = if (depthFirst) pending.removeLast() else pending.removeHead()
        adj(u).foreach { case (w, e) =>
          emit(e)
          if (visited.add(w)) pending.append(w)
        }
      }
    }
    out.result()
  }
}

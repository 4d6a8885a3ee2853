package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions._
import repro.core.Model._

/** Measures partitioning quality as the paper does (§1.3, §5): the number of
  * inter-partition traversals (ipt) incurred when executing a pattern-match
  * query workload over a partitioned graph.
  *
  * For each query q, every distinct match is inspected: each matched data
  * edge whose endpoints live in different partitions costs one ipt. Per-query
  * totals are weighted by the query's relative frequency in the workload.
  *
  * Matching runs once per (graph, workload) in Spark and yields per-edge
  * match counts c_q(e), the number of distinct matches of q that contain e
  * ([[counts]]). Scoring a partitioning P is then one pass on the driver:
  * ipt_q(P) = Σ_e c_q(e)·[P(x_e) ≠ P(y_e)] ([[WorkloadCounts.score]]).
  */
object IptEvaluator {

  /** Result for one query of the workload. */
  final case class QueryIpt(queryIndex: Int, frequency: Double,
                            matchCount: Long, ipt: Long) {
    def weightedIpt: Double = frequency * ipt
  }

  /** Result over a whole workload. */
  final case class WorkloadIpt(perQuery: Vector[QueryIpt]) {
    def totalWeightedIpt: Double = perQuery.map(_.weightedIpt).sum
    def totalMatches: Long       = perQuery.map(_.matchCount).sum
  }

  /** c_q(e) for one query: data edge (x(j), y(j)) lies in c(j) > 0 distinct
    * matches of q.
    */
  final case class EdgeCounts(matchCount: Long, x: Array[VId], y: Array[VId],
                              c: Array[Long])

  /** Per-edge match counts of every workload query over one graph. */
  final case class WorkloadCounts(workload: Workload, perQuery: Vector[EdgeCounts]) {

    /** ipt of the workload under `pmap`. An edge with an unassigned
      * endpoint never crosses.
      */
    def score(pmap: collection.Map[VId, Int]): WorkloadIpt =
      WorkloadIpt(workload.queries.zip(perQuery).zipWithIndex.map {
        case (((_, f), ec), qi) =>
          var ipt = 0L
          var j   = 0
          while (j < ec.c.length) {
            val a = pmap.getOrElse(ec.x(j), -1)
            val b = pmap.getOrElse(ec.y(j), -1)
            if (a >= 0 && b >= 0 && a != b) ipt += ec.c(j)
            j += 1
          }
          QueryIpt(qi, f, ec.matchCount, ipt)
      })
  }

  /** Per-edge match counts of `workload` over `edges`: the match rows of
    * every query are exploded into their edges, grouped by (query, edge) and
    * collected once.
    *
    * The queries match over a local checkpoint of `edges`, a snapshot whose
    * logical plan is a leaf. `edges` is typically a cached generator output
    * whose plan carries every expression that generated it, and Spark would
    * analyse and render that plan again for each of the ~20 scans of the
    * pattern SQL. The snapshot is released before this returns.
    */
  def counts(edges: DataFrame, workload: Workload): WorkloadCounts = {
    val snapshot = edges.localCheckpoint()
    val rows = try {
      val exploded = workload.queries.zipWithIndex.map { case ((q, _), qi) =>
        val es = q.edges.indices.map(i => struct(col(s"x$i") as "x", col(s"y$i") as "y"))
        PatternMatcher.matches(snapshot, q)
          .select(lit(qi) as "q", explode(array(es: _*)) as "e")
          .select(col("q"), col("e.x") as "x", col("e.y") as "y")
      }.reduce(_ unionAll _)
      exploded.groupBy("q", "x", "y").count().collect()
    } finally release(snapshot)
    WorkloadCounts(workload, workload.queries.zipWithIndex.map { case ((q, _), qi) =>
      val mine = rows.filter(_.getInt(0) == qi)
      val c    = mine.map(_.getLong(3))
      // A match maps q's edges to |E_q| distinct data edges.
      EdgeCounts(c.sum / q.numEdges, mine.map(_.getLong(1)), mine.map(_.getLong(2)), c)
    })
  }

  /** Frees the blocks of a local checkpoint. `Dataset.unpersist` does not:
    * they belong to the RDD behind the snapshot's `LogicalRDD`.
    */
  private def release(snapshot: DataFrame): Unit =
    snapshot.queryExecution.logical.foreach {
      case r: LogicalRDD => r.rdd.unpersist(blocking = true)
      case _             =>
    }

  /** ipt of a full workload over a partitioning: [[counts]], then score.
    * `spark` is not needed (`edges` carries its session); callers that
    * score several partitionings of one graph should reuse [[counts]].
    */
  def evaluate(spark: SparkSession, edges: DataFrame, pmap: Map[VId, Int],
               workload: Workload): WorkloadIpt =
    counts(edges, workload).score(pmap)
}

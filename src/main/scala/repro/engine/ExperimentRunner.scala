package repro.engine

import org.apache.spark.sql.DataFrame
import repro.core.Model._
import repro.core.{LoomPartitioner, Signature, TPSTry}
import repro.graphgen.{Dataset, StreamOrder}
import repro.partition._

/** Harness for the paper's experiments: stream a dataset in a given order
  * through each partitioner, then execute the dataset's workload over the
  * resulting partitioning and count ipt (§5.1).
  */
object ExperimentRunner {

  /** Names of the four compared systems, in the paper's presentation order. */
  val Systems: Vector[String] = Vector("Hash", "LDG", "Fennel", "Loom")

  /** One partitioning run's outcome. */
  final case class PartitionRun(system: String, pmap: Map[VId, Int],
                                elapsedMs: Double, edges: Long,
                                imbalance: Double) {
    /** ms per 10k edges, the paper's Table 2 unit. */
    def msPer10k: Double = if (edges == 0) 0 else elapsedMs * 10000.0 / edges
  }

  /** One (dataset, order, system, k, window) quality measurement. */
  final case class IptRow(dataset: String, order: String, system: String, k: Int,
                          window: Int, weightedIpt: Double, matches: Long,
                          imbalance: Double, msPer10k: Double)

  /** The paper's default TPSTry++ support threshold T (40%). */
  private val SupportThreshold = 0.4

  /** Build a partitioner by name. Loom derives its TPSTry++ from the
    * workload with support threshold [[SupportThreshold]].
    */
  def makePartitioner(system: String, k: Int, n: Long, m: Long,
                      workload: Workload, windowSize: Int): StreamingPartitioner = system match {
    case "Hash"   => new HashPartitioner(k, n)
    case "LDG"    => GreedyPartitioner.ldg(k, n)
    case "Fennel" => GreedyPartitioner.fennel(k, n, m)
    case "Loom" =>
      implicit val coder: Signature.LabelCoder = new Signature.LabelCoder()
      val trie = TPSTry.ofWorkload(workload)
      new LoomPartitioner(k, n, trie.motifIndex(SupportThreshold), windowSize)
    case other => sys.error(s"unknown system $other")
  }

  /** Stream `stream` through a fresh `system` partitioner; returns the map,
    * wall time, and final imbalance.
    */
  def partition(system: String, stream: Vector[LEdge], k: Int, n: Long, m: Long,
                workload: Workload, windowSize: Int): PartitionRun = {
    val part  = makePartitioner(system, k, n, m, workload, windowSize)
    val start = System.nanoTime()
    stream.foreach(part.add)
    part.finish()
    val elapsed = (System.nanoTime() - start) / 1e6
    PartitionRun(system, part.state.toMap, elapsed, stream.size,
                 part.state.imbalance)
  }

  /** Distinct vertex/edge counts of a collected stream. */
  def graphStats(stream: Vector[LEdge]): (Long, Long) = {
    val vs = stream.iterator.flatMap(e => Iterator(e.u, e.v)).toSet
    (vs.size.toLong, stream.size.toLong)
  }

  /** Run all four systems over one (dataset, order, k) and score each from
    * the graph's per-edge match counts (see [[IptEvaluator.counts]]).
    */
  def compareSystems(dataset: Dataset, edgesDf: DataFrame, order: StreamOrder.Order,
                     counts: IptEvaluator.WorkloadCounts, k: Int,
                     windowSize: Int): Vector[IptRow] = {
    val stream = StreamOrder.stream(edgesDf, order)
    val (n, m) = graphStats(stream)
    Systems.map { sys =>
      val run = partition(sys, stream, k, n, m, counts.workload, windowSize)
      val res = counts.score(run.pmap)
      IptRow(dataset.name, order.name, sys, k, windowSize, res.totalWeightedIpt,
             res.totalMatches, run.imbalance, run.msPer10k)
    }
  }

  /** Format ipt rows relative to the Hash baseline (the paper's Fig. 7/8
    * presentation: ipt as a percentage of Hash's ipt).
    */
  def relativeToHash(rows: Vector[IptRow]): Vector[(IptRow, Double)] = {
    val hash = rows.find(_.system == "Hash")
      .getOrElse(sys.error("relativeToHash needs a Hash row"))
    rows.map(r =>
      r -> (if (hash.weightedIpt == 0) 100.0 else 100.0 * r.weightedIpt / hash.weightedIpt))
  }
}

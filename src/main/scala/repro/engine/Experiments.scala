package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Model._
import repro.engine.ExperimentRunner.{IptRow, PartitionRun}
import repro.graphgen.{Dataset, Datasets, StreamOrder}
import repro.workloads.Workloads

/** The paper's evaluation artefacts (§5): Tables 1–2 and Figs. 7–9, each
  * defined once as a function returning typed rows, with one formatter that
  * renders the table the bench reports and `repro.jobs.Run` prints.
  */
object Experiments {

  /** Partition count of every experiment except Fig. 8's k sweep. */
  private val K = 8

  /** One Table 1 row: a generated dataset's distinct vertex and edge counts. */
  final case class DatasetSize(dataset: Dataset, vertices: Long, edges: Long)

  /** Table 1: every dataset's generated size next to the paper's. */
  def table1(spark: SparkSession, sf: Double): Vector[DatasetSize] =
    Datasets.all.map { d =>
      val edges = d.generate(spark, sf).cache()
      try {
        val m = edges.count()
        val n = edges.select("u").union(edges.select("v")).distinct().count()
        DatasetSize(d, n, m)
      } finally edges.unpersist()
    }

  def formatTable1(rows: Vector[DatasetSize]): Vector[String] =
    (f"${"Dataset"}%-12s ${"paper ~V"}%9s ${"paper ~E"}%9s ${"|L_V|"}%6s " +
     f"${"gen |V|"}%9s ${"gen |E|"}%10s ${"Real"}%5s  Description") +:
      rows.map { case DatasetSize(d, n, m) =>
        f"${d.name}%-12s ${d.paperV}%9s ${d.paperE}%9s ${d.numLabels}%6d " +
        f"$n%9d $m%10d ${if (d.real) "Y" else "N"}%5s  ${d.description}"
      }

  /** Table 2: per dataset, each system [[timed]] over its BFS stream, in
    * the table's column order (LDG, Fennel, Loom, Hash).
    */
  def table2(spark: SparkSession, sf: Double, window: Int): Vector[(String, Vector[Timed])] =
    Datasets.all.map { d =>
      val stream = StreamOrder.stream(d.generate(spark, sf), StreamOrder.Bfs)
      val (n, m) = ExperimentRunner.graphStats(stream)
      val w      = Workloads.forDataset(d.name)
      d.name -> Vector("LDG", "Fennel", "Loom", "Hash").map(timed(_, stream, n, m, w, window))
    }

  /** Number of timed passes behind each [[Timed]] figure. */
  private val TimedPasses = 5

  /** [[TimedPasses]] timed runs of one system: the median-time run, and
    * every pass's ms per 10k edges in pass order.
    */
  final case class Timed(median: PartitionRun, passesMsPer10k: Vector[Double]) {
    def system: String    = median.system
    def msPer10k: Double  = median.msPer10k
  }

  /** k = 8 runs of `system` over `stream`: a warm-up pass (JIT) on its
    * first 5k edges, then [[TimedPasses]] timed passes over all of it.
    */
  def timed(system: String, stream: Vector[LEdge], n: Long, m: Long,
            workload: Workload, window: Int): Timed = {
    ExperimentRunner.partition(system, stream.take(5000), K, n, m, workload, window)
    val runs = Vector.fill(TimedPasses)(ExperimentRunner.partition(system, stream, K, n, m, workload, window))
    Timed(runs.sortBy(_.elapsedMs).apply(TimedPasses / 2), runs.map(_.msPer10k))
  }

  /** Interquartile range of `xs` (quartiles interpolated linearly). */
  private def iqr(xs: Vector[Double]): Double = {
    val s = xs.sorted
    def q(p: Double): Double = {
      val x = p * (s.size - 1)
      val i = x.toInt
      if (i + 1 < s.size) s(i) + (x - i) * (s(i + 1) - s(i)) else s(i)
    }
    q(0.75) - q(0.25)
  }

  /** Median times per 10k edges, Loom's over Fennel's, and the IQR of that
    * ratio over the passes, paired in pass order.
    */
  def formatTable2(rows: Vector[(String, Vector[Timed])]): Vector[String] =
    (f"${"Dataset"}%-12s ${"LDG(ms)"}%9s ${"Fennel(ms)"}%11s " +
     f"${"Loom(ms)"}%9s ${"Hash(ms)"}%9s ${"Loom/Fennel"}%12s ${"L/F IQR"}%8s") +:
      rows.map { case (name, runs) =>
        val t      = runs.map(_.msPer10k)
        val ratios = runs(2).passesMsPer10k.zip(runs(1).passesMsPer10k).map { case (l, f) => l / f }
        f"$name%-12s ${t(0)}%9.1f ${t(1)}%11.1f ${t(2)}%9.1f ${t(3)}%9.1f ${t(2) / t(1)}%12.2f " +
        f"${iqr(ratios)}%8.2f"
      }

  /** Fig. 7: every queryable dataset × stream order, all four systems at
    * k = 8, each row with its ipt as a % of Hash's in the same configuration.
    */
  def fig7(spark: SparkSession, sf: Double, window: Int): Vector[(IptRow, Double)] =
    Datasets.queryable.flatMap { d =>
      withCounts(spark, d, sf) { (edges, counts) =>
        StreamOrder.all.flatMap { ord =>
          ExperimentRunner.relativeToHash(
            ExperimentRunner.compareSystems(d, edges, ord, counts, K, window))
        }
      }
    }

  /** Loom's ipt over Fennel's in each (dataset, order) of [[fig7]]'s rows. */
  def fig7Ratios(rows: Vector[(IptRow, Double)]): Vector[(String, String, Double)] =
    byConfig(rows)(r => (r.dataset, r.order)).map { case ((ds, o), pct) =>
      (ds, o, pct("Loom") / pct("Fennel"))
    }

  def formatFig7(rows: Vector[(IptRow, Double)]): Vector[String] = {
    val header = f"${"Dataset"}%-12s ${"Order"}%-7s ${"System"}%-7s " +
                 f"${"ipt%vsHash"}%10s ${"abs ipt"}%12s ${"imbalance"}%10s"
    val lines = rows.map { case (r, pct) =>
      f"${r.dataset}%-12s ${r.order}%-7s ${r.system}%-7s " +
      f"$pct%10.1f ${r.weightedIpt}%12.0f ${r.imbalance}%10.3f"
    }
    val ratios  = fig7Ratios(rows)
    val summary = ratios.map { case (ds, o, r) => f"$ds%-12s $o%-7s Loom/Fennel = $r%5.2f" }
    val wins    = ratios.count(_._3 < 1.0)
    (header +: lines) ++ ("" +: summary) :+
      f"Loom beats Fennel in $wins of ${ratios.size} configurations"
  }

  /** Fig. 8: DBLP and LUBM-100 BFS streams for k ∈ {2, 4, 8, 16, 32}, all
    * four systems, each row with its ipt as a % of Hash's.
    */
  def fig8(spark: SparkSession, sf: Double, window: Int): Vector[(IptRow, Double)] =
    Vector(Datasets.dblp, Datasets.lubm100).flatMap { d =>
      withCounts(spark, d, sf) { (edges, counts) =>
        Vector(2, 4, 8, 16, 32).flatMap { k =>
          ExperimentRunner.relativeToHash(
            ExperimentRunner.compareSystems(d, edges, StreamOrder.Bfs, counts, k, window))
        }
      }
    }

  /** Whether Loom beats Fennel, per (dataset, k) of [[fig8]]'s rows. */
  def fig8Wins(rows: Vector[(IptRow, Double)]): Vector[Boolean] =
    byConfig(rows)(r => (r.dataset, r.k)).map { case (_, pct) => pct("Loom") < pct("Fennel") }

  def formatFig8(rows: Vector[(IptRow, Double)]): Vector[String] = {
    val header = f"${"Dataset"}%-12s ${"k"}%3s ${"System"}%-7s ${"ipt%vsHash"}%10s ${"abs ipt"}%12s"
    val lines  = rows.map { case (r, pct) =>
      f"${r.dataset}%-12s ${r.k}%3d ${r.system}%-7s $pct%10.1f ${r.weightedIpt}%12.0f"
    }
    val wins = fig8Wins(rows)
    (header +: lines) :+
      f"Loom beats Fennel in ${wins.count(identity)} of ${wins.size} (dataset,k) configurations"
  }

  /** Fig. 9: Loom's absolute ipt on DBLP for windows t ∈ {100, 1k, 10k},
    * BFS and random orders, k = 8.
    */
  def fig9(spark: SparkSession, sf: Double): Vector[IptRow] = {
    val d = Datasets.dblp
    withCounts(spark, d, sf) { (edges, counts) =>
      Vector(StreamOrder.Bfs, StreamOrder.Random).flatMap { ord =>
        val stream = StreamOrder.stream(edges, ord)
        val (n, m) = ExperimentRunner.graphStats(stream)
        Vector(100, 1000, 10000).map { t =>
          val run = ExperimentRunner.partition("Loom", stream, K, n, m, counts.workload, t)
          val res = counts.score(run.pmap)
          IptRow(d.name, ord.name, "Loom", K, t, res.totalWeightedIpt, res.totalMatches,
                 run.imbalance, run.msPer10k)
        }
      }
    }
  }

  def formatFig9(rows: Vector[IptRow]): Vector[String] =
    f"${"Dataset"}%-12s ${"Order"}%-7s ${"window"}%7s ${"ipt"}%12s" +:
      rows.map(r => f"${r.dataset}%-12s ${r.order}%-7s ${r.window}%7d ${r.weightedIpt}%12.0f")

  /** Each configuration's system → ipt % of Hash, in run order. */
  def byConfig[C](rows: Vector[(IptRow, Double)])(config: IptRow => C): Vector[(C, Map[String, Double])] = {
    val grouped = rows.groupBy { case (r, _) => config(r) }
    rows.map { case (r, _) => config(r) }.distinct.map { c =>
      c -> grouped(c).map { case (r, pct) => r.system -> pct }.toMap
    }
  }

  /** Generate `d` at `sf`, cache it and count its workload's matches once,
    * for every partitioning `body` scores.
    */
  private def withCounts[A](spark: SparkSession, d: Dataset, sf: Double)
                           (body: (DataFrame, IptEvaluator.WorkloadCounts) => A): A = {
    val edges = d.generate(spark, sf).cache()
    try body(edges, IptEvaluator.counts(edges, Workloads.forDataset(d.name)))
    finally edges.unpersist()
  }
}

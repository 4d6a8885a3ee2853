package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.engine.{ExperimentRunner, IptEvaluator}
import repro.graphgen.{Datasets, StreamOrder}
import repro.workloads.Workloads

/** Shared session/setup for spark-submit entrypoints. */
object JobUtil {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Scale factor from args(0) if present, else 1.0 (the lite scale). */
  def sf(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)
}

/** Table 1: dataset sizes — prints paper numbers next to generated ones. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("loom-table1")
    println(f"${"Dataset"}%-12s ${"paper~V"}%8s ${"paper~E"}%8s ${"|L_V|"}%6s " +
            f"${"gen|V|"}%9s ${"gen|E|"}%9s  Real  Description")
    Datasets.all.foreach { d =>
      val edges  = d.generate(spark, JobUtil.sf(args)).cache()
      val m      = edges.count()
      val n      = edges.select("u").union(edges.select("v")).distinct().count()
      println(f"${d.name}%-12s ${d.paperV}%8s ${d.paperE}%8s ${d.numLabels}%6d " +
              f"$n%9d $m%9d  ${if (d.real) "Y" else "N"}%-4s  ${d.description}")
      edges.unpersist()
    }
    spark.stop()
  }
}

/** Table 2: ms to partition 10k edges, per system per dataset (BFS streams). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("loom-table2")
    println(f"${"Dataset"}%-12s ${"LDG(ms)"}%9s ${"Fennel(ms)"}%11s ${"Loom(ms)"}%9s ${"Hash(ms)"}%9s")
    Datasets.all.foreach { d =>
      val stream = StreamOrder.stream(d.generate(spark, JobUtil.sf(args)), StreamOrder.Bfs)
      val (n, m) = ExperimentRunner.graphStats(stream)
      val w      = Workloads.forDataset(d.name)
      val times = Vector("LDG", "Fennel", "Loom", "Hash").map { s =>
        ExperimentRunner.partition(s, stream, k = 8, n, m, w, windowSize = 1000).msPer10k
      }
      println(f"${d.name}%-12s ${times(0)}%9.1f ${times(1)}%11.1f ${times(2)}%9.1f ${times(3)}%9.1f")
    }
    spark.stop()
  }
}

/** Fig. 7 experiment: ipt % vs Hash, 8-way, all orders × queryable datasets. */
object Fig7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("loom-fig7")
    println(f"${"Dataset"}%-12s ${"Order"}%-7s ${"System"}%-7s ${"ipt%%vsHash"}%10s ${"imbalance"}%10s")
    for (d <- Datasets.queryable) {
      val edges  = d.generate(spark, JobUtil.sf(args)).cache()
      val counts = IptEvaluator.counts(edges, Workloads.forDataset(d.name))
      for (ord <- StreamOrder.all) {
        val rows = ExperimentRunner.compareSystems(d, edges, ord, counts, k = 8, windowSize = 1000)
        ExperimentRunner.relativeToHash(rows).foreach { case (r, rel) =>
          println(f"${r.dataset}%-12s ${r.order}%-7s ${r.system}%-7s $rel%10.1f ${r.imbalance}%10.3f")
        }
      }
      edges.unpersist()
    }
    spark.stop()
  }
}

/** Fig. 8 experiment: ipt % vs Hash for k ∈ {2,4,8,16,32}, BFS streams. */
object Fig8Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("loom-fig8")
    println(f"${"Dataset"}%-12s ${"k"}%3s ${"System"}%-7s ${"ipt%%vsHash"}%10s")
    for (d <- Vector(Datasets.dblp, Datasets.lubm100)) {
      val edges  = d.generate(spark, JobUtil.sf(args)).cache()
      val counts = IptEvaluator.counts(edges, Workloads.forDataset(d.name))
      for (k <- Vector(2, 4, 8, 16, 32)) {
        val rows = ExperimentRunner.compareSystems(d, edges, StreamOrder.Bfs, counts, k, windowSize = 1000)
        ExperimentRunner.relativeToHash(rows).foreach { case (r, rel) =>
          println(f"${r.dataset}%-12s $k%3d ${r.system}%-7s $rel%10.1f")
        }
      }
      edges.unpersist()
    }
    spark.stop()
  }
}

/** Fig. 9 experiment: absolute ipt vs Loom window size, BFS & random orders. */
object Fig9Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("loom-fig9")
    println(f"${"Dataset"}%-12s ${"Order"}%-7s ${"window"}%7s ${"ipt"}%12s")
    val d     = Datasets.dblp
    val edges = d.generate(spark, JobUtil.sf(args)).cache()
    val w     = Workloads.forDataset(d.name)
    val counts = IptEvaluator.counts(edges, w)
    for (ord <- Vector(StreamOrder.Bfs, StreamOrder.Random); t <- Vector(100, 1000, 10000)) {
      val stream = StreamOrder.stream(edges, ord)
      val (n, m) = ExperimentRunner.graphStats(stream)
      val run    = ExperimentRunner.partition("Loom", stream, k = 8, n, m, w, windowSize = t)
      val res    = counts.score(run.pmap)
      println(f"${d.name}%-12s ${ord.name}%-7s $t%7d ${res.totalWeightedIpt}%12.0f")
    }
    edges.unpersist()
    spark.stop()
  }
}

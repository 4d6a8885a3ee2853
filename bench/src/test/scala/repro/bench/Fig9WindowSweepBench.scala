package repro.bench

import repro.engine.{ExperimentRunner, IptEvaluator}
import repro.graphgen.{Datasets, StreamOrder}
import repro.workloads.Workloads

/** Fig. 9 reproduction (as a table): absolute ipt of Loom partitionings as
  * the window size t grows (paper sweeps 100 → 10k and finds large gains up
  * to 10k on random orders, with diminishing returns on ordered streams).
  */
class Fig9WindowSweepBench extends BenchBase {

  test("Fig 9: Loom ipt vs window size") {
    val d     = Datasets.dblp
    val edges = d.generate(spark, benchSf).cache()
    val w     = Workloads.forDataset(d.name)
    val header = f"${"Dataset"}%-12s ${"Order"}%-7s ${"window"}%7s ${"ipt"}%12s"
    val lines  = Vector.newBuilder[String]
    val results = scala.collection.mutable.Map.empty[(String, Int), Double]
    try {
      val counts = IptEvaluator.counts(edges, w)
      for (ord <- Vector(StreamOrder.Bfs, StreamOrder.Random);
           t   <- Vector(100, 1000, 10000)) {
        val stream = StreamOrder.stream(edges, ord)
        val (n, m) = ExperimentRunner.graphStats(stream)
        val run    = ExperimentRunner.partition("Loom", stream, 8, n, m, w, windowSize = t)
        val res    = counts.score(run.pmap)
        results((ord.name, t)) = res.totalWeightedIpt
        lines += f"${d.name}%-12s ${ord.name}%-7s $t%7d ${res.totalWeightedIpt}%12.0f"
      }
    } finally edges.unpersist()
    report("fig9", header +: lines.result())
    // Shape: growing the window never makes the random-order partitioning
    // much worse, and the largest window beats the smallest on random order
    // (the paper's ~47% improvement from t=100 to t=10k).
    assert(results(("random", 10000)) <= results(("random", 100)),
           s"random order should improve with window size: $results")
  }
}

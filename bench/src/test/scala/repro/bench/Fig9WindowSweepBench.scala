package repro.bench

import repro.engine.Experiments

/** Fig. 9 reproduction (as a table): absolute ipt of Loom partitionings as
  * the window size t grows (paper sweeps 100 → 10k and finds large gains up
  * to 10k on random orders, with diminishing returns on ordered streams).
  */
class Fig9WindowSweepBench extends BenchBase {

  test("Fig 9: Loom ipt vs window size") {
    val rows = Experiments.fig9(spark, benchSf)
    report("fig9", Experiments.formatFig9(rows))
    val results = rows.map(r => (r.order, r.window) -> r.weightedIpt).toMap
    // Shape: growing the window never makes the random-order partitioning
    // much worse, and the largest window beats the smallest on random order
    // (the paper's ~47% improvement from t=100 to t=10k).
    assert(results(("random", 10000)) <= results(("random", 100)),
           s"random order should improve with window size: $results")
  }
}

package repro.bench

import repro.engine.{ExperimentRunner, IptEvaluator}
import repro.graphgen.{Datasets, StreamOrder}
import repro.workloads.Workloads

/** Fig. 8 reproduction (as a table): ipt % vs Hash for k ∈ {2,4,8,16,32}
  * over breadth-first streams.
  *
  * Paper shape: the relative ordering Hash > LDG > Fennel > Loom is largely
  * consistent across partition counts (absolute ipt grows with k for every
  * system, so the relative percentages stay stable).
  */
class Fig8KSweepBench extends BenchBase {

  test("Fig 8: ipt % vs Hash across k") {
    val header = f"${"Dataset"}%-12s ${"k"}%3s ${"System"}%-7s ${"ipt%%vsHash"}%10s ${"abs ipt"}%12s"
    val lines  = Vector.newBuilder[String]
    val loomWins = Vector.newBuilder[Boolean]

    for (d <- Vector(Datasets.dblp, Datasets.lubm100)) {
      val edges = d.generate(spark, benchSf).cache()
      try {
        val counts = IptEvaluator.counts(edges, Workloads.forDataset(d.name))
        for (k <- Vector(2, 4, 8, 16, 32)) {
          val rows = ExperimentRunner.compareSystems(d, edges, StreamOrder.Bfs, counts, k, benchWindow)
          val rel = ExperimentRunner.relativeToHash(rows)
          rel.foreach { case (r, pct) =>
            lines += f"${r.dataset}%-12s $k%3d ${r.system}%-7s $pct%10.1f ${r.weightedIpt}%12.0f"
          }
          val byName = rel.map { case (r, pct) => r.system -> pct }.toMap
          loomWins += byName("Loom") < byName("Fennel")
        }
      } finally edges.unpersist()
    }
    val wins = loomWins.result().count(identity)
    report("fig8", (header +: lines.result()) :+
           f"Loom beats Fennel in $wins of ${loomWins.result().size} (dataset,k) configurations")
    assert(wins >= loomWins.result().size / 2,
           "Loom's advantage should be robust across partition counts")
  }
}

package repro.bench

import repro.engine.{ExperimentRunner, IptEvaluator}
import repro.graphgen.{Datasets, StreamOrder}
import repro.workloads.Workloads

/** Fig. 7 reproduction (as a table): ipt as a percentage of Hash's ipt when
  * executing each dataset's workload over 8-way partitionings, for
  * breadth-first / random / depth-first streams of the four queryable
  * datasets.
  *
  * Paper shape to reproduce: Hash (100%) ≫ LDG (~45%) > Fennel > Loom, with
  * Loom 15–40% below Fennel (median 20–25%), most pronounced on the most
  * heterogeneous graph (MusicBrainz) and on ordered (bfs/dfs) streams.
  */
class Fig7RelativeIptBench extends BenchBase {

  private val k = 8

  test("Fig 7: ipt % vs Hash across datasets, stream orders, 8-way") {
    val header = f"${"Dataset"}%-12s ${"Order"}%-7s ${"System"}%-7s " +
                 f"${"ipt%%vsHash"}%10s ${"abs ipt"}%12s ${"imbalance"}%10s"
    val lines  = Vector.newBuilder[String]
    val loomVsFennel = Vector.newBuilder[(String, String, Double)]

    for (d <- Datasets.queryable) {
      val edges = d.generate(spark, benchSf).cache()
      try {
        val counts = IptEvaluator.counts(edges, Workloads.forDataset(d.name))
        for (ord <- StreamOrder.all) {
          val rows = ExperimentRunner.compareSystems(d, edges, ord, counts, k, benchWindow)
          val rel = ExperimentRunner.relativeToHash(rows)
          rel.foreach { case (r, pct) =>
            lines += f"${r.dataset}%-12s ${r.order}%-7s ${r.system}%-7s " +
                     f"$pct%10.1f ${r.weightedIpt}%12.0f ${r.imbalance}%10.3f"
          }
          val byName = rel.map { case (r, pct) => r.system -> pct }.toMap
          loomVsFennel += ((d.name, ord.name, byName("Loom") / byName("Fennel")))
          // Within every configuration Hash must be worst.
          assert(byName("Loom") <= 100.0 && byName("Fennel") <= 100.0 && byName("LDG") <= 100.0,
                 s"${d.name}/${ord.name}: some system lost to Hash: $byName")
        }
      } finally edges.unpersist()
    }

    val ratios = loomVsFennel.result()
    val summary = ratios.map { case (ds, o, r) => f"$ds%-12s $o%-7s Loom/Fennel = $r%5.2f" }
    val wins    = ratios.count(_._3 < 1.0)
    report("fig7", (header +: lines.result()) ++ ("" +: summary) :+
           f"Loom beats Fennel in $wins of ${ratios.size} configurations")
    // The paper's headline: Loom beats Fennel in the clear majority of
    // (dataset, order) configurations.
    assert(wins >= ratios.size * 2 / 3,
           s"Loom should beat Fennel in most configs: $wins of ${ratios.size}")
  }
}

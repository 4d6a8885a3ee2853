package repro.bench

import repro.engine.Experiments

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

  test("Fig 7: ipt % vs Hash across datasets, stream orders, 8-way") {
    val rows = Experiments.fig7(spark, benchSf, benchWindow)
    report("fig7", Experiments.formatFig7(rows))
    Experiments.byConfig(rows)(r => (r.dataset, r.order)).foreach { case ((dataset, order), byName) =>
      // Within every configuration Hash must be worst.
      assert(byName("Loom") <= 100.0 && byName("Fennel") <= 100.0 && byName("LDG") <= 100.0,
             s"$dataset/$order: some system lost to Hash: $byName")
    }
    val ratios = Experiments.fig7Ratios(rows)
    val wins   = ratios.count(_._3 < 1.0)
    // The paper's headline: Loom beats Fennel in the clear majority of
    // (dataset, order) configurations.
    assert(wins >= ratios.size * 2 / 3,
           s"Loom should beat Fennel in most configs: $wins of ${ratios.size}")
  }
}

package repro.bench

import repro.engine.Experiments

/** Fig. 8 reproduction (as a table): ipt % vs Hash for k ∈ {2,4,8,16,32}
  * over breadth-first streams.
  *
  * Paper shape: the relative ordering Hash > LDG > Fennel > Loom is largely
  * consistent across partition counts (absolute ipt grows with k for every
  * system, so the relative percentages stay stable).
  */
class Fig8KSweepBench extends BenchBase {

  test("Fig 8: ipt % vs Hash across k") {
    val rows = Experiments.fig8(spark, benchSf, benchWindow)
    report("fig8", Experiments.formatFig8(rows))
    val loomWins = Experiments.fig8Wins(rows)
    val wins     = loomWins.count(identity)
    assert(wins >= loomWins.size / 2,
           "Loom's advantage should be robust across partition counts")
  }
}

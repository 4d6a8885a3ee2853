package repro.bench

import repro.engine.{ExperimentRunner, Experiments}
import repro.graphgen.{Datasets, StreamOrder}
import repro.workloads.Workloads

/** Table 2 reproduction: time (ms) to partition 10k edges, per partitioner
  * per dataset (BFS streams, k = 8, like the paper's setup).
  *
  * Paper numbers (their 3.1 GHz i7 prototype):
  *   DBLP        91 / 96 / 235 / 28
  *   ProvGen    144 / 146 / 240 / 33
  *   MusicBrainz 48 / 52 / 129 / 18
  *   LUBM-100    47 / 51 / 147 / 22
  *   LUBM-4000   45 / 49 / 138 / 16   (LDG / Fennel / Loom / Hash)
  * We expect the same ordering (Hash < LDG ≈ Fennel < Loom) and a Loom
  * slowdown factor of roughly 1.5–7x over Fennel, not absolute values.
  */
class Table2TimingBench extends BenchBase {

  test("Table 2: time to partition 10k edges") {
    val rows = Experiments.table2(spark, benchSf, benchWindow)
    report("table2", Experiments.formatTable2(rows))
    rows.foreach { case (name, runs) =>
      val t = runs.map(_.msPer10k)
      assert(t.forall(_ > 0), s"$name: zero timing")
    }
  }

  test("Table 2 shape: Hash is fastest; Loom is the slowest of the four") {
    val d      = Datasets.dblp
    val stream = StreamOrder.stream(d.generate(spark, benchSf), StreamOrder.Bfs)
    val (n, m) = ExperimentRunner.graphStats(stream)
    val w      = Workloads.forDataset(d.name)
    def time(s: String): Double = Experiments.timed(s, stream, n, m, w, benchWindow).msPer10k
    val (hash, ldg, fennel, loom) = (time("Hash"), time("LDG"), time("Fennel"), time("Loom"))
    assert(hash < ldg && hash < fennel && hash < loom, s"Hash not fastest: $hash $ldg $fennel $loom")
    assert(loom > fennel, s"Loom ($loom) should cost more than Fennel ($fennel)")
  }
}

package repro.engine

import repro.SparkSpec
import repro.graphgen.{Datasets, StreamOrder}

/** Every experiment of the evaluation at minimal scale: each returns one row
  * per configuration the paper reports, and its formatter one line per row
  * below the header.
  */
class ExperimentsSpec extends SparkSpec {

  private val sf     = 0.005
  private val window = 50

  test("table1 has one row per dataset") {
    val rows = Experiments.table1(spark, sf)
    assert(rows.map(_.dataset) == Datasets.all)
    assert(Experiments.formatTable1(rows).size == rows.size + 1)
  }

  test("table2 times LDG, Fennel, Loom and Hash on every dataset") {
    val rows = Experiments.table2(spark, sf, window)
    assert(rows.map(_._1) == Datasets.all.map(_.name))
    rows.foreach { case (_, runs) => assert(runs.map(_.system) == Vector("LDG", "Fennel", "Loom", "Hash")) }
    assert(Experiments.formatTable2(rows).size == rows.size + 1)
  }

  test("fig7 covers queryable datasets x orders x systems at k = 8") {
    val rows = Experiments.fig7(spark, sf, window)
    val keys = for (d <- Datasets.queryable; o <- StreamOrder.all; s <- ExperimentRunner.Systems)
      yield (d.name, o.name, s)
    assert(rows.map { case (r, _) => (r.dataset, r.order, r.system) } == keys)
    assert(rows.forall { case (r, _) => r.k == 8 && r.window == window })
    rows.foreach { case (r, _) => assert(r.weightedIpt >= 0, s"${r.dataset} ${r.order} ${r.system}") }
    val configs = Datasets.queryable.size * StreamOrder.all.size
    assert(Experiments.fig7Ratios(rows).size == configs)
    val table = Experiments.formatFig7(rows)
    assert(table.size == rows.size + configs + 3)
    assert(table.head.split(" +").toVector ==
             Vector("Dataset", "Order", "System", "ipt%vsHash", "abs", "ipt", "imbalance"))
  }

  test("fig8 sweeps k over DBLP and LUBM-100 BFS streams") {
    val rows = Experiments.fig8(spark, sf, window)
    val keys = for (d <- Vector("DBLP", "LUBM-100"); k <- Vector(2, 4, 8, 16, 32);
                    s <- ExperimentRunner.Systems) yield (d, k, s)
    assert(rows.map { case (r, _) => (r.dataset, r.k, r.system) } == keys)
    assert(rows.forall { case (r, _) => r.order == "bfs" && r.window == window })
    assert(Experiments.fig8Wins(rows).size == 10)
    val table = Experiments.formatFig8(rows)
    assert(table.size == rows.size + 2)
    assert(table.head.split(" +").toVector == Vector("Dataset", "k", "System", "ipt%vsHash", "abs", "ipt"))
  }

  test("fig9 sweeps Loom's window over DBLP BFS and random streams") {
    val rows = Experiments.fig9(spark, sf)
    val keys = for (o <- Vector("bfs", "random"); t <- Vector(100, 1000, 10000)) yield (o, t)
    assert(rows.map(r => (r.order, r.window)) == keys)
    assert(rows.forall(r => r.dataset == "DBLP" && r.system == "Loom" && r.k == 8))
    assert(Experiments.formatFig9(rows).size == rows.size + 1)
  }
}

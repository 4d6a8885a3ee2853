package repro.bench

import repro.engine.Experiments

/** Table 1 reproduction: graph datasets, incl. size & heterogeneity.
  *
  * Paper values are the full-size datasets; ours are the schema-faithful
  * synthetic analogues at lite scale (DESIGN.md substitution #1). The
  * invariant reproduced exactly is |L_V| per dataset; sizes scale by ~1/50
  * (LUBM-4000 by ~1/1000).
  */
class Table1DatasetsBench extends BenchBase {

  test("Table 1: dataset sizes and heterogeneity") {
    val rows = Experiments.table1(spark, benchSf)
    report("table1", Experiments.formatTable1(rows))
    rows.foreach { case Experiments.DatasetSize(d, n, m) =>
      assert(m > 0 && n > 0, s"${d.name} generated an empty graph")
    }
  }
}

package repro.workloads

import repro.SparkSpec
import repro.core.Model._
import repro.core.Signature.LabelCoder
import repro.core.TPSTry
import repro.graphgen.Datasets

/** Workload sanity: patterns must be realisable under the dataset schemas and
  * yield non-trivial motif sets at the paper's default threshold.
  */
class WorkloadsSpec extends SparkSpec {

  private val cases = Datasets.queryable.map(d => d -> Workloads.forDataset(d.name))

  test("every dataset has a workload; LUBM-4000 shares LUBM's") {
    Datasets.all.foreach(d => Workloads.forDataset(d.name))
    assert(Workloads.forDataset("LUBM-4000") eq Workloads.forDataset("LUBM-100"))
    intercept[RuntimeException] { Workloads.forDataset("nope") }
  }

  test("pattern sizes follow the paper (2-4 edges, 'order of 10' at most)") {
    cases.foreach { case (_, w) =>
      w.queries.foreach { case (q, _) =>
        assert(q.numEdges >= 1 && q.numEdges <= 10)
      }
      assert(w.queries.map(_._1.numEdges).max <= 4)
    }
  }

  test("every pattern edge is realisable under the dataset's schema") {
    cases.foreach { case (d, w) =>
      val allowed = d.schema.edgeTypes.flatMap(t =>
        Seq((t.srcLabel, t.dstLabel), (t.dstLabel, t.srcLabel))).toSet
      w.queries.foreach { case (q, _) =>
        q.edges.foreach { case (a, b) =>
          val pair = (q.labels(a), q.labels(b))
          assert(allowed.contains(pair),
                 s"${d.name}: pattern edge $pair not generatable by schema")
        }
      }
    }
  }

  test("workloads are skewed: they traverse a strict subset of edge types") {
    cases.foreach { case (d, w) =>
      val allTypes = d.schema.edgeTypes.map(t =>
        if (t.srcLabel <= t.dstLabel) (t.srcLabel, t.dstLabel)
        else (t.dstLabel, t.srcLabel)).toSet
      val used = w.queries.flatMap(_._1.edgeLabelPairs).toSet
      assert(used.subsetOf(allTypes), s"${d.name}: workload uses unknown types")
      assert(used.size < allTypes.size,
             s"${d.name}: workload traverses every edge type — no skew")
    }
  }

  test("frequencies are positive and sum to a sensible total") {
    cases.foreach { case (_, w) =>
      assert(w.totalFrequency > 0)
      w.queries.foreach { case (_, f) => assert(f > 0) }
    }
  }

  test("each workload yields at least one multi-edge motif at T=40%") {
    cases.foreach { case (d, w) =>
      implicit val c: LabelCoder = new LabelCoder()
      val idx = TPSTry.ofWorkload(w).motifIndex(0.4)
      assert(idx.motifs.nonEmpty, s"${d.name}: no motifs at 40%")
      assert(idx.maxMotifEdges >= 2,
             s"${d.name}: motifs are single edges only — Loom degenerates to LDG")
    }
  }

  test("single-edge motifs cover a meaningful share of each workload") {
    cases.foreach { case (d, w) =>
      implicit val c: LabelCoder = new LabelCoder()
      val idx = TPSTry.ofWorkload(w).motifIndex(0.4)
      val singles = idx.motifs.count(_.sizeEdges == 1)
      assert(singles >= 1, s"${d.name}: no single-edge motifs")
    }
  }
}

package repro.jobs

import repro.engine.{ExperimentRunner, IptEvaluator}
import repro.graphgen.{Datasets, StreamOrder}
import repro.workloads.Workloads

/** Quick quality smoke: one dataset, one order, all systems.
  * Usage: runMain repro.jobs.SmokeJob [sf] [dataset] [order] [k] [window]
  */
object SmokeJob {
  def main(args: Array[String]): Unit = {
    val spark  = JobUtil.session("loom-smoke")
    spark.sparkContext.setLogLevel("WARN")
    val sf     = args.lift(0).map(_.toDouble).getOrElse(0.2)
    val d      = Datasets.byName(args.lift(1).getOrElse("DBLP"))
    val ord    = StreamOrder.all.find(_.name == args.lift(2).getOrElse("bfs")).get
    val k      = args.lift(3).map(_.toInt).getOrElse(8)
    val window = args.lift(4).map(_.toInt).getOrElse(1000)
    val edges  = d.generate(spark, sf).cache()
    val w      = Workloads.forDataset(d.name)
    val t0     = System.nanoTime()
    val counts = IptEvaluator.counts(edges, w)
    val rows   = ExperimentRunner.compareSystems(d, edges, ord, counts, k, window)
    ExperimentRunner.relativeToHash(rows).foreach { case (r, rel) =>
      println(f"${r.dataset}%-12s ${r.order}%-7s ${r.system}%-7s rel=$rel%7.1f%% " +
              f"abs=${r.weightedIpt}%12.0f imb=${r.imbalance}%6.3f ms/10k=${r.msPer10k}%8.1f")
    }
    println(f"total ${(System.nanoTime() - t0) / 1e9}%.1f s")
    // Per-query breakdown + Loom internals across window sizes.
    val stream = StreamOrder.stream(edges, ord)
    val (n, m) = ExperimentRunner.graphStats(stream)
    // Ground-truth community partitioning (generator oracle): community -> k.
    locally {
      val community = repro.graphgen.SchemaGraphGen.communityOf(
        d.schema, math.max(16L, (d.nVertices * sf).toLong)) _
      val verts = stream.flatMap(e => Seq(e.u, e.v)).distinct
      val cross = stream.count(e => community(e.u) != community(e.v))
      println(f"community check: cross-community edges = $cross of ${stream.size} " +
              f"(${100.0 * cross / stream.size}%.1f%%)")
      val pmap  = verts.map(v => v -> community(v) % k).toMap
      val res   = counts.score(pmap)
      println(f"perQ GroundTruth total ipt=${res.totalWeightedIpt}%12.0f")
    }
    for (sysName <- Vector("LDG", "Fennel")) {
      val run = ExperimentRunner.partition(sysName, stream, k, n, m, w, window)
      val res = counts.score(run.pmap)
      res.perQuery.foreach { q =>
        println(f"perQ $sysName%-7s q${q.queryIndex} f=${q.frequency}%5.0f " +
                f"matches=${q.matchCount}%8d ipt=${q.ipt}%8d weighted=${q.weightedIpt}%12.0f")
      }
    }
    for (wnd <- Vector(100, 1000, 5000, 20000)) {
      val loom = ExperimentRunner
        .makePartitioner("Loom", k, n, m, w, wnd)
        .asInstanceOf[repro.core.LoomPartitioner]
      val t1 = System.nanoTime()
      stream.foreach(loom.add); loom.finish()
      val ms = (System.nanoTime() - t1) / 1e6
      val res = counts.score(loom.state.toMap)
      res.perQuery.foreach { q =>
        println(f"perQ Loom/w$wnd%-6d q${q.queryIndex} f=${q.frequency}%5.0f " +
                f"matches=${q.matchCount}%8d ipt=${q.ipt}%8d weighted=${q.weightedIpt}%12.0f")
      }
      println(f"loom w=$wnd%6d ipt=${res.totalWeightedIpt}%12.0f ms=$ms%9.1f " +
              s"evictions=${loom.evictions} zeroBid=${loom.zeroBidEvictions} " +
              s"ldgEdges=${loom.ldgEdges} eoVertices=${loom.eoVertices} imb=${loom.state.imbalance}")
    }
    // Parameter sweep: alpha x maxChosen, plus the no-cluster ablation.
    locally {
      implicit val coder: repro.core.Signature.LabelCoder =
        new repro.core.Signature.LabelCoder()
      val trie = repro.core.TPSTry.ofWorkload(w)
      def runVariant(tag: String, params: repro.core.EqualOpportunism.Params,
                     cluster: Boolean): Unit = {
        val p = new repro.core.LoomPartitioner(k, n, trie.motifIndex(0.4),
                                               window, params, clusterAssign = cluster)
        stream.foreach(p.add); p.finish()
        val res = counts.score(p.state.toMap)
        println(f"variant $tag%-24s ipt=${res.totalWeightedIpt}%12.0f " +
                s"zeroBid=${p.zeroBidEvictions} ev=${p.evictions}")
      }
      import repro.core.EqualOpportunism.Params
      runVariant("ablation", Params(), cluster = false)
      runVariant("a=2/3 cap=2", Params(maxChosen = 2), cluster = true)
      runVariant("a=2/3 cap=4", Params(maxChosen = 4), cluster = true)
      runVariant("a=1/4", Params(alpha = 0.25), cluster = true)
      runVariant("a=1/4 cap=4", Params(alpha = 0.25, maxChosen = 4), cluster = true)
    }
    spark.stop()
  }
}

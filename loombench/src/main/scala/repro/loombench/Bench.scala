package repro.loombench

import java.nio.file.Path
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{LoomPartitioner, Signature, TPSTry}
import repro.core.Model._
import repro.engine.{ExperimentRunner, IptEvaluator, PatternMatcher}
import repro.graphgen.{Dataset, Datasets, StreamOrder}
import repro.jobs.JobUtil
import repro.workloads.Workloads

/** One benchmark workload: a dataset streamed in one order into one window
  * size. `engineCell` workloads time whole experiment cells (partition and
  * score in Spark); the others time partitioner passes only.
  */
final case class Spec(name: String, dataset: Dataset, order: StreamOrder.Order,
                      window: Int, engineCell: Boolean)

object Spec {
  val all: Vector[Spec] = Vector(
    Spec("cell-dblp-bfs", Datasets.dblp, StreamOrder.Bfs, 1000, engineCell = true),
    Spec("stream-dblp-random-w10k", Datasets.dblp, StreamOrder.Random, 10000, engineCell = false),
  )

  def byName(name: String): Option[Spec] = all.find(_.name == name)
}

/** Spark jobs, tasks and shuffle bytes, counted by a listener the benchmark
  * registers on the session.
  */
final class SparkCounters extends SparkListener {
  private var jobs, tasks, shuffleRead, shuffleWrite = 0L

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobs += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    Option(e.taskMetrics).foreach { m =>
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** (jobs, tasks, shuffle bytes read, shuffle bytes written) once the
    * asynchronous listener bus has stopped delivering events.
    */
  def settled(): Vector[Long] = {
    def now = synchronized(Vector(jobs, tasks, shuffleRead, shuffleWrite))
    var last  = now
    var stable = 0
    var tries  = 0
    while (stable < 3 && tries < 50) {
      Thread.sleep(100)
      val cur = now
      if (cur == last) stable += 1 else { stable = 0; last = cur }
      tries += 1
    }
    last
  }
}

object BenchRun {
  val K             = 8
  val SetupReps     = 3
  val MinRounds     = 6
  val BaselineReps  = 3
  val RoundSystems  = Vector("Loom", "LDG", "Fennel", "Hash")

  /** Stream-order seed for a run seed; the default run seed gives the
    * program's own defaults (generator 7, order 11).
    */
  def orderSeed(seed: Long): Long = seed + 4

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  final case class Data(edges: DataFrame, stream: Vector[LEdge], n: Long, m: Long)

  /** One set-up repetition and its stage times; `totalS` includes the
    * session.
    */
  final case class SetupRep(data: Data, totalS: Double, sessionS: Double, generateS: Double,
                            orderS: Double, trieMs: Double)

  /** Loom's public counters at the end of a pass. */
  final case class LoomCounters(evictions: Long, zeroBidEvictions: Long, eoVertices: Long)

  /** One finished pass; the partitioner itself is not kept. `ms` is the
    * partitioning time (`add` and `finish`), `wallNs` includes building the
    * partitioner and its map.
    */
  final case class Pass(system: String, ms: Double, wallNs: Long, m: Long,
                        pmap: Map[VId, Int], imbalance: Double,
                        allocBytes: Long, gcS: Double, layers: Option[LoomLayers],
                        loom: Option[LoomCounters]) {
    def msPer10k: Double = ms * 10000.0 / m
  }
}

/** One run of one workload: set-up, timed measurement, checks, metrics. */
final class BenchRun(spec: Spec, seed: Long, seconds: Double, trace: Boolean, outDir: Path) {
  import BenchRun._

  private val workload = Workloads.forDataset(spec.dataset.name)
  private val tracer   = new Tracer(trace, s"${spec.name}-seed$seed-trace${if (trace) 1 else 0}")
  private var attempted, failed = 0L
  private val problems = mutable.ArrayBuffer.empty[String]
  private val fingerprints = mutable.LinkedHashMap.empty[String, String]
  private val endToEnd = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]

  private def problem(msg: String): Unit = {
    problems += msg
    Console.err.println(s"[loombench] CHECK FAILED: $msg")
  }

  /** Count one operation; it fails if it throws or records a problem. */
  private def operation[A](what: String)(body: => A): Option[A] = {
    attempted += 1
    val before = problems.size
    try {
      val r = body
      if (problems.size > before) failed += 1
      Some(r)
    } catch {
      case NonFatal(e) =>
        failed += 1
        problem(s"$what threw $e")
        None
    }
  }

  /** Start a Spark session, generate, collect and order the stream, and
    * build Loom's trie.
    */
  private def setUp(): (SparkSession, SetupRep) =
    tracer.span("setup.rep") { attrs =>
      val t0    = System.nanoTime()
      val spark = tracer.span("spark.session") { _ => JobUtil.session("loombench") }
      spark.sparkContext.setLogLevel("WARN")
      val t1    = System.nanoTime()
      val edges = tracer.span("graphgen.generate") { _ =>
        // Cached as the experiment jobs cache it: Spark's random order
        // depends on the partitioning of its input.
        val df = spec.dataset.generate(spark, 1.0, seed).cache()
        df.count()
        df
      }
      val t2     = System.nanoTime()
      val stream = tracer.span("graphgen.order") { _ =>
        StreamOrder.stream(edges, spec.order, orderSeed(seed))
      }
      val t3     = System.nanoTime()
      val (n, m) = ExperimentRunner.graphStats(stream)
      val motifs = tracer.span("tpstry.build") { _ =>
        implicit val coder: Signature.LabelCoder = new Signature.LabelCoder()
        TPSTry.ofWorkload(workload).motifIndex(0.4)
      }
      val t4 = System.nanoTime()
      perLayer("tpstry.motifs") = (motifs.motifs.size.toDouble, "count")
      perLayer("tpstry.max_motif_edges") = (motifs.maxMotifEdges.toDouble, "count")
      maxMotifEdges = motifs.maxMotifEdges
      if (attrs != null) { attrs("edges") = m.toDouble; attrs("vertices") = n.toDouble }
      (spark, SetupRep(Data(edges, stream, n, m), secondsSince(t0), (t1 - t0) / 1e9,
                       (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e6))
    }

  /** Stream the data through a fresh `system` partitioner (untimed checks
    * follow in [[verify]]). Untraced passes are `ExperimentRunner.partition`,
    * the loop the experiment jobs run; a traced Loom pass times each call
    * through [[LoomLayers]] instead.
    */
  private def partition(system: String, d: Data, traceLoom: Boolean): Pass =
    tracer.span(s"partition.$system") { attrs =>
      val gc0 = Jvm.gcSeconds
      val a0  = Jvm.allocatedBytes
      val w0  = System.nanoTime()
      val pass = if (traceLoom && system == "Loom") {
        val loom = ExperimentRunner.makePartitioner(system, K, d.n, d.m, workload, spec.window)
          .asInstanceOf[LoomPartitioner]
        val l = LoomLayers.run(loom, d.stream)
        Pass(system, l.wallNs / 1e6, 0L, d.m, loom.state.toMap, loom.state.imbalance, 0L, 0.0,
             Some(l), Some(LoomCounters(loom.evictions, loom.zeroBidEvictions, loom.eoVertices)))
      } else {
        val r = ExperimentRunner.partition(system, d.stream, K, d.n, d.m, workload, spec.window)
        Pass(system, r.elapsedMs, 0L, d.m, r.pmap, r.imbalance, 0L, 0.0, None, None)
      }
      val wall = System.nanoTime() - w0
      if (attrs != null) {
        attrs("ms") = pass.ms
        pass.layers.foreach { l =>
          attrs("nonmotif_ms") = l.nonmotifNs / 1e6
          attrs("insert_ms") = l.insertNs / 1e6
          attrs("evict_insert_ms") = l.evictInsertNs / 1e6
          attrs("finish_ms") = l.finishNs / 1e6
        }
      }
      pass.copy(wallNs = wall, allocBytes = Jvm.allocatedBytes - a0, gcS = Jvm.gcSeconds - gc0)
    }

  private var maxMotifEdges = 0

  // Spark's default parallelism, which the random stream order depends on.
  private var parallelism = 0

  // Sorted distinct stream vertices, for the assignment checks.
  private var vertices: Array[VId] = Array.empty

  /** Output checks for one finished pass. */
  private def verify(p: Pass): Unit = {
    val slack = if (p.system == "Loom") Checks.loomSlack(maxMotifEdges) else 0
    Checks.partitionProblems(p.system, p.pmap, vertices, K, slack).foreach(problem)
    val fp = Checks.fingerprint(p.pmap)
    fingerprints.get(p.system) match {
      case Some(first) if first != fp =>
        problem(s"${p.system}: pmap fingerprint $fp differs from this run's first pass ($first)")
      case Some(_) =>
      case None =>
        fingerprints(p.system) = fp
        if (parallelism == Checks.RecordedParallelism)
          Checks.Recorded.get((spec.name, seed)).flatMap(_.get(p.system)).foreach { rec =>
            if (rec != fp) problem(s"${p.system}: pmap fingerprint $fp differs from the recorded $rec")
          }
    }
  }

  private def timedPass(system: String, d: Data, traceLoom: Boolean): Option[Pass] =
    operation(s"partition $system") {
      val p = partition(system, d, traceLoom)
      Console.err.println(f"[loombench] $system pass ${p.ms}%.1f ms")
      verify(p)
      p
    }

  /** Engine score of `p`, checked against the reference scorer. */
  private def compareScores(p: Pass, engine: IptEvaluator.WorkloadIpt, ref: RefScorer): Unit = {
    val want = ref.score(p.pmap)
    val got  = engine.perQuery.map(q => (q.queryIndex, q.matchCount, q.ipt))
    val exp  = want.perQuery.map(q => (q.queryIndex, q.matchCount, q.ipt))
    if (got != exp)
      problem(s"${p.system}: IptEvaluator per-query (index, matches, ipt) $got != reference $exp")
    if (engine.totalWeightedIpt != want.totalWeightedIpt)
      problem(s"${p.system}: IptEvaluator weighted ipt ${engine.totalWeightedIpt} != " +
              s"reference ${want.totalWeightedIpt}")
  }

  def execute(): String = {
    val runStart = System.nanoTime()
    var spark: SparkSession = null
    try {
      // Set-up, once cold and then SetupReps times warm, each time in a new
      // session; the last session and its data are kept.
      val reps = (0 to SetupReps).map { _ =>
        if (spark != null) spark.stop()
        val (s, rep) = setUp()
        spark = s
        rep
      }
      parallelism = spark.sparkContext.defaultParallelism
      val counters = new SparkCounters
      spark.sparkContext.addSparkListener(counters)
      measure(spark, counters, reps)
    } finally {
      if (spark != null) spark.stop()
      if (trace) tracer.write(outDir.resolve(s"trace-${spec.name}-seed$seed.json"))
      Console.err.println(f"[loombench] run took ${secondsSince(runStart)}%.1f s")
    }
  }

  private def measure(spark: SparkSession, counters: SparkCounters,
                      reps: Seq[SetupRep]): String = {
    val data = reps.last.data
    if (reps.exists(_.data.stream != data.stream)) problem("set-up gave different streams")
    vertices = data.stream.iterator.flatMap(e => Iterator(e.u, e.v)).toArray.distinct.sorted
    val warmT0 = System.nanoTime()
    tracer.span("setup.warmup") { _ =>
      RoundSystems.foreach(s => timedPass(s, data, traceLoom = false))
    }
    val warmupS = secondsSince(warmT0)
    // The cold repetition pays the JVM's class loading and first compiles
    // once; it is reported per layer, as are the one-off warm-up passes.
    val warm = reps.tail
    endToEnd("setup_s") = (median(warm.map(_.totalS)), "s")
    perLayer("setup.cold_s") = (reps.head.totalS, "s")
    perLayer("setup.warmup_s") = (warmupS, "s")
    perLayer("spark.session_s") = (median(warm.map(_.sessionS)), "s")
    perLayer("graphgen.generate_s") = (median(warm.map(_.generateS)), "s")
    perLayer("graphgen.order_s") = (median(warm.map(_.orderS)), "s")
    perLayer("graphgen.edges") = (data.m.toDouble, "count")
    perLayer("graphgen.vertices") = (data.n.toDouble, "count")
    perLayer("tpstry.build_ms") = (median(warm.map(_.trieMs)), "ms")
    val repTimes = reps.map(r => f"${r.sessionS}%.2f+${r.totalS - r.sessionS}%.2f").mkString(" / ")
    Console.err.println(f"[loombench] set-up (session+data): $repTimes s, warm-up $warmupS%.2f s; " +
                        f"${data.m} edges, ${data.n} vertices")

    // Reference scores (not part of set-up time).
    val refT0 = System.nanoTime()
    val ref   = tracer.span("ref.enumerate") { _ => new RefScorer(data.stream, workload) }
    perLayer("ref.enumerate_s") = (secondsSince(refT0), "s")
    perLayer("ref.matches") = (ref.totalMatches.toDouble, "count")

    val passes  = mutable.ArrayBuffer.empty[Pass]
    val cells   = mutable.ArrayBuffer.empty[Double]
    val untracedLoom = mutable.ArrayBuffer.empty[Double]
    val engineScores = mutable.LinkedHashMap.empty[String, IptEvaluator.WorkloadIpt]
    val scoreS  = mutable.LinkedHashMap.empty[String, Double]
    var cellAccountedS = 0.0
    val jobs0   = counters.settled()
    val deadline = System.nanoTime() + (seconds * 1e9).toLong

    // One round: Loom, then the three baselines BaselineReps times each,
    // each batch on a freshly collected heap. Traced runs add an untraced
    // Loom pass, before the traced one in even rounds and after it in odd
    // ones, for the overhead.
    var rounds = 0
    def round(): Unit = tracer.span("round") { _ =>
      def untracedLoomPass(): Unit = if (trace) {
        System.gc()
        timedPass("Loom", data, traceLoom = false).foreach(p => untracedLoom += p.msPer10k)
      }
      if (rounds % 2 == 0) untracedLoomPass()
      System.gc()
      val loom = timedPass("Loom", data, traceLoom = trace)
      if (rounds % 2 == 1) untracedLoomPass()
      rounds += 1
      System.gc()
      passes ++= loom
      (0 until BaselineReps).foreach(_ => passes ++= RoundSystems.tail.flatMap(s => timedPass(s, data, false)))
    }

    if (spec.engineCell) {
      // Whole experiment cells: each system partitions, then Spark scores it.
      do {
        val cellPasses = mutable.ArrayBuffer.empty[(Pass, Option[IptEvaluator.WorkloadIpt])]
        var accounted  = 0.0
        val c0 = System.nanoTime()
        tracer.span("cell") { _ =>
          ExperimentRunner.Systems.foreach { s =>
            val pass = operation(s"partition $s")(partition(s, data, traceLoom = trace))
            pass.foreach { p =>
              accounted += p.wallNs / 1e9
              val s0  = System.nanoTime()
              val res = operation(s"score $s") {
                tracer.span(s"engine.score.$s") { _ =>
                  IptEvaluator.evaluate(spark, data.edges, p.pmap, workload)
                }
              }
              val sc = secondsSince(s0)
              accounted += sc
              if (!scoreS.contains(s)) scoreS(s) = sc
              cellPasses += (p -> res)
            }
          }
        }
        cells += secondsSince(c0)
        if (cellAccountedS == 0.0) cellAccountedS = accounted
        // Checks run after the cell so that they stay out of its time.
        cellPasses.foreach { case (p, res) =>
          val before = problems.size
          verify(p)
          res.foreach { r =>
            compareScores(p, r, ref)
            engineScores.getOrElseUpdate(p.system, r)
          }
          if (problems.size > before) failed += 1
        }
      } while (System.nanoTime() < deadline)
      (0 until MinRounds).foreach(_ => round())
    } else {
      var r = 0
      while (r < MinRounds || System.nanoTime() < deadline) { round(); r += 1 }
    }
    val jobs1 = counters.settled()

    // Quality: ipt relative to Hash, from the engine where it scored and
    // from the reference scorer otherwise.
    val firstPass = RoundSystems.flatMap(s => passes.find(_.system == s).map(s -> _)).toMap
    val ipt: Map[String, Double] = firstPass.flatMap { case (s, p) =>
      engineScores.get(s).map(r => s -> r.totalWeightedIpt).orElse {
        operation(s"reference score $s")(ref.score(p.pmap).totalWeightedIpt).map(s -> _)
      }
    }
    def untraced(s: String): Seq[Pass] = passes.filter(p => p.system == s && p.layers.isEmpty).toSeq
    def msPer10k(s: String): Seq[Double] = untraced(s).map(_.msPer10k)

    // Every untraced run reports every end-to-end metric. A stream workload
    // scores nothing in Spark, so its cell is the partition stage alone: the
    // median pass of each system.
    if (spec.engineCell) endToEnd("cell_s") = (median(cells.toSeq), "s")
    else if (RoundSystems.forall(untraced(_).nonEmpty))
      endToEnd("cell_s") = (RoundSystems.map(s => median(untraced(s).map(_.ms))).sum / 1e3, "s")
    if (msPer10k("Loom").nonEmpty) endToEnd("loom_ms_per_10k") = (median(msPer10k("Loom")), "ms")
    for (s <- Vector("Loom", "Fennel", "LDG"); h <- ipt.get("Hash"); v <- ipt.get(s) if h > 0)
      endToEnd(s"${s.toLowerCase}_ipt_pct_hash") = (100.0 * v / h, "%")

    layerMetrics(data, passes.toSeq, untracedLoom.toSeq, firstPass, scoreS, cells.toSeq,
                 cellAccountedS, jobs0, jobs1)
    if (spec.engineCell && trace) matchTimes(spark, data, ref)
    else workload.queries.indices.foreach(i => perLayer(s"engine.match_s.q$i") = (0.0, "s"))
    if (!perLayer.contains("engine.matches")) perLayer("engine.matches") = (0.0, "count")
    perLayer("jvm.heap_peak_mb") = (Jvm.heapPeakMb, "MiB")
    perLayer("jvm.gc_s") = (Jvm.gcSeconds, "s")

    writeRecord(result(all = true))
    result(all = false)
  }

  private def layerMetrics(data: Data, passes: Seq[Pass], untracedLoom: Seq[Double],
                           firstPass: Map[String, Pass], scoreS: collection.Map[String, Double],
                           cells: Seq[Double], cellAccountedS: Double,
                           jobs0: Vector[Long], jobs1: Vector[Long]): Unit = {
    def of(s: String) = passes.filter(_.system == s)
    def perTenK(x: Double) = x * 10000.0 / data.m
    val mib = 1024.0 * 1024.0

    for (s <- RoundSystems; p <- firstPass.get(s))
      perLayer(s"${s.toLowerCase}.imbalance") = (p.imbalance, "ratio")
    for (s <- Vector("LDG", "Fennel", "Hash") if of(s).nonEmpty)
      perLayer(s"${s.toLowerCase}.ms_per_10k") = (median(of(s).map(_.msPer10k)), "ms")
    for (s <- Vector("LDG", "Fennel") if of(s).nonEmpty)
      perLayer(s"${s.toLowerCase}.alloc_mb_per_10k") =
        (median(of(s).map(p => perTenK(p.allocBytes / mib))), "MiB")
    val loomUntraced = untracedLoom ++ of("Loom").filter(_.layers.isEmpty).map(_.msPer10k)
    val fennel       = of("Fennel").map(_.msPer10k)
    if (loomUntraced.nonEmpty && fennel.nonEmpty)
      perLayer("loom_fennel_time_ratio") = (median(loomUntraced) / median(fennel), "ratio")

    // Loom's layers, from the traced pass of median wall time.
    val traced = of("Loom").filter(_.layers.nonEmpty).sortBy(_.ms)
    if (traced.nonEmpty) {
      val p = traced((traced.size - 1) / 2)
      val l = p.layers.get
      val loom = p.loom.get
      val ev   = math.max(1L, loom.evictions).toDouble
      perLayer("loom.nonmotif_s") = (l.nonmotifNs / 1e9, "s")
      perLayer("loom.nonmotif_edges") = (l.nonmotifEdges.toDouble, "count")
      perLayer("loom.insert_s") = (l.insertNs / 1e9, "s")
      perLayer("loom.insert_edges") = (l.insertEdges.toDouble, "count")
      perLayer("loom.evict_insert_s") = (l.evictInsertNs / 1e9, "s")
      perLayer("loom.evict_insert_edges") = (l.evictInsertEdges.toDouble, "count")
      perLayer("loom.evictions") = (loom.evictions.toDouble, "count")
      perLayer("loom.finish_s") = (l.finishNs / 1e9, "s")
      perLayer("loom.zero_bid_evictions") = (loom.zeroBidEvictions.toDouble, "count")
      perLayer("loom.zero_bid_ratio") = (loom.zeroBidEvictions / ev, "ratio")
      perLayer("loom.eo_vertices_per_eviction") = (loom.eoVertices / ev, "ratio")
      perLayer("loom.window_peak") = (l.windowPeak.toDouble, "count")
      perLayer("loom.live_matches_peak") = (l.liveMatchesPeak.toDouble, "count")
      perLayer("loom.live_matches_mean") = (l.liveMatchesMean, "count")
      perLayer("loom.alloc_mb_per_10k") = (perTenK(p.allocBytes / mib), "MiB")
      perLayer("loom.gc_s") = (p.gcS, "s")
      perLayer("loom.accounted_pct") = (100.0 * l.accountedNs / l.wallNs, "%")
      val tracedMs = median(traced.map(_.msPer10k))
      perLayer("trace.loom_ms_per_10k") = (tracedMs, "ms")
      if (untracedLoom.nonEmpty)
        perLayer("trace.loom_overhead_ms_per_10k") = (tracedMs - median(untracedLoom), "ms")
    }

    // Engine layer: only cells score in Spark.
    for (s <- ExperimentRunner.Systems)
      perLayer(s"engine.score_s.$s") = (scoreS.getOrElse(s, 0.0), "s")
    val d = jobs1.zip(jobs0).map { case (a, b) => (a - b).toDouble }
    val nCells = if (spec.engineCell) cells.size.toDouble else 1.0
    perLayer("engine.spark_jobs") = (if (spec.engineCell) d(0) / nCells else 0.0, "count")
    perLayer("engine.spark_tasks") = (if (spec.engineCell) d(1) / nCells else 0.0, "count")
    perLayer("engine.shuffle_read_mb") = (if (spec.engineCell) d(2) / nCells / mib else 0.0, "MiB")
    perLayer("engine.shuffle_write_mb") = (if (spec.engineCell) d(3) / nCells / mib else 0.0, "MiB")
    perLayer("trace.cell_s") = (if (spec.engineCell) cells.head else 0.0, "s")
    perLayer("engine.cell_accounted_pct") =
      (if (spec.engineCell) 100.0 * cellAccountedS / cells.head else 0.0, "%")
  }

  /** Per-query `PatternMatcher.matches(..).count()` times (traced cells). */
  private def matchTimes(spark: SparkSession, data: Data, ref: RefScorer): Unit = {
    var total = 0L
    workload.queries.zipWithIndex.foreach { case ((q, _), i) =>
      val t0 = System.nanoTime()
      operation(s"match q$i") {
        val c = tracer.span(s"engine.match.q$i") { _ => PatternMatcher.matches(data.edges, q).count() }
        if (c != ref.matchCounts(i)) problem(s"q$i: engine found $c matches, reference ${ref.matchCounts(i)}")
        total += c
      }
      perLayer(s"engine.match_s.q$i") = (secondsSince(t0), "s")
    }
    perLayer("engine.matches") = (total.toDouble, "count")
  }

  /** The result line: end-to-end metrics untraced, per-layer ones traced;
    * `all` adds both sets and the run's context, for the record file.
    */
  private def result(all: Boolean): String = {
    val metrics =
      if (all) endToEnd ++ perLayer
      else if (trace) perLayer
      else endToEnd
    val fields = Seq(
      "correct"   -> (if (failed == 0 && problems.isEmpty) "true" else "false"),
      "attempted" -> attempted.toString,
      "failed"    -> failed.toString,
      "metrics"   -> Json.obj(metrics.toSeq.map { case (k, (v, unit)) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
      }),
    )
    if (!all) Json.obj(fields)
    else Json.obj(Seq(
      "workload" -> Json.str(spec.name), "seed" -> seed.toString,
      "seconds" -> Json.num(seconds), "trace" -> trace.toString,
      "fingerprints" -> Json.obj(fingerprints.toSeq.map { case (k, v) => k -> Json.str(v) }),
      "problems" -> Json.arr(problems.toSeq.map(Json.str)),
    ) ++ fields)
  }

  private def writeRecord(json: String): Unit = {
    val path = outDir.resolve(s"record-${spec.name}-seed$seed-trace${if (trace) 1 else 0}.json")
    java.nio.file.Files.createDirectories(outDir)
    java.nio.file.Files.writeString(path, json + "\n")
  }
}

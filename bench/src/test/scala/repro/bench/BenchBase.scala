package repro.bench

import java.io.{File, PrintWriter}
import repro.SparkSpec

/** Base for benchmark suites: each bench runs its experiment from
  * [[repro.engine.Experiments]], asserts the paper's shape on the rows, and
  * reports the experiment's table: printed to stdout and written to
  * bench_results/<name>.txt, where runs can be diffed against each other and
  * against the paper's numbers (`repro.jobs.Run` prints the same table).
  *
  * BENCH_SF scales all benchmark datasets (default 1.0 = the lite scale
  * defined in [[repro.graphgen.Datasets]]).
  */
trait BenchBase extends SparkSpec {

  /** Global benchmark scale factor. */
  val benchSf: Double = sys.env.getOrElse("BENCH_SF", "1.0").toDouble

  /** Default window size at the lite scale (paper default 10k on graphs 50x
    * larger; see DESIGN.md substitution #3).
    */
  val benchWindow: Int = sys.env.getOrElse("BENCH_WINDOW", "1000").toInt

  private lazy val outDir: File = {
    val d = new File("bench_results")
    d.mkdirs()
    d
  }

  /** Print lines to stdout and persist them under bench_results/. */
  def report(name: String, lines: Seq[String]): Unit = {
    lines.foreach(println)
    val pw = new PrintWriter(new File(outDir, s"$name.txt"))
    try lines.foreach(pw.println)
    finally pw.close()
  }
}

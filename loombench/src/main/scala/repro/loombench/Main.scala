package repro.loombench

import java.nio.file.Paths

/** Entry point of the Loom benchmark.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * Prints progress on stderr and, as the last line of stdout, one JSON
  * object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
  * metrics untraced, per-layer metrics traced). Exits non-zero, without a
  * result line, if the run cannot complete.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val spec = Spec.byName(need("workload")).getOrElse(
      usage(s"unknown workload ${need("workload")}; one of ${Spec.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    val out  = Paths.get(opts.getOrElse("out", "loombench-out"))
    val line =
      try new BenchRun(spec, need("seed").toLong, need("seconds").toDouble, trace, out).execute()
      catch {
        case e: Throwable =>
          e.printStackTrace()
          sys.exit(1)
      }
    println(line)
    sys.exit(0)
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"loombench: $msg")
    Console.err.println("usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]")
    sys.exit(2)
  }
}

package repro.loombench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Minimal JSON rendering for the result line and the span file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'           => b.append("\\\"")
      case '\\'          => b.append("\\\\")
      case c if c < ' '  => b.append(f"\\u${c.toInt}%04x")
      case c             => b.append(c)
    }
    b.append('"').toString
  }

  /** A finite double with all its digits (`Double.toString` round-trips). */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a finite number: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}

/** JVM-wide readings: thread allocation, GC time and heap high-water mark. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  /** Total collection time of all collectors so far, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Sum of the heap pools' peak usage since start, in MiB. */
  def heapPeakMb: Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
}

/** Spans recorded by the benchmark around its calls into the program.
  *
  * With tracing off every call is a plain pass-through, so untraced runs pay
  * nothing but the branch. With tracing on, each [[span]] records its name,
  * start, end and parent; spans live in memory and are written out once,
  * when the run ends. Per-edge work is never a span of its own: the caller
  * aggregates it into busy-time accumulators and attaches the totals to the
  * enclosing span as attributes.
  */
final class Tracer(val enabled: Boolean, val runId: String) {
  import Tracer.Span

  private val origin = System.nanoTime()
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private var open   = List.empty[Span]

  /** Run `body` inside a span; `attrs` may be filled while it runs. */
  def span[A](name: String)(body: mutable.LinkedHashMap[String, Double] => A): A =
    if (!enabled) body(null)
    else {
      val s = Span(spans.size, open.headOption.map(_.id).getOrElse(-1), name,
                   System.nanoTime(), 0L, mutable.LinkedHashMap.empty)
      spans += s
      open = s :: open
      try body(s.attrs)
      finally { s.endNs = System.nanoTime(); open = open.tail }
    }

  /** Spans as JSON, times in ms relative to the tracer's creation. */
  def toJson: String = Json.obj(Seq(
    "run" -> Json.str(runId),
    "spans" -> Json.arr(spans.toSeq.map { s =>
      Json.obj(Seq(
        "id"       -> s.id.toString,
        "parent"   -> s.parent.toString,
        "name"     -> Json.str(s.name),
        "start_ms" -> Json.num((s.startNs - origin) / 1e6),
        "end_ms"   -> Json.num((s.endNs - origin) / 1e6),
        "attrs"    -> Json.obj(s.attrs.toSeq.map { case (k, v) => k -> Json.num(v) }),
      ))
    }),
  ))

  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, toJson + "\n")
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, var endNs: Long,
                        attrs: mutable.LinkedHashMap[String, Double])
}

package repro.loombench

import repro.core.LoomPartitioner
import repro.core.Model._

/** Busy time of one Loom pass, split by the path each `add` took.
  *
  * Each `add` is timed from outside and classified by how Loom's public
  * counters moved across the call: a rise in `ldgEdges` marks a non-motif
  * edge (placed by LDG, never buffered), a rise in `evictions` marks an
  * eviction followed by the insert, and any other edge is an insert only.
  * `finish()` (the window drain) is timed on its own. Window size and live
  * match count are sampled after every `add`.
  */
final class LoomLayers {
  var nonmotifNs, insertNs, evictInsertNs, finishNs = 0L
  var nonmotifEdges, insertEdges, evictInsertEdges  = 0L
  var windowPeak, liveMatchesPeak                   = 0
  var liveMatchesSum                                = 0.0
  var wallNs                                        = 0L

  def edges: Long      = nonmotifEdges + insertEdges + evictInsertEdges
  def accountedNs: Long = nonmotifNs + insertNs + evictInsertNs + finishNs
  def liveMatchesMean: Double = if (edges == 0) 0.0 else liveMatchesSum / edges
}

object LoomLayers {

  /** Stream `stream` through `loom` and finish it, timing every call. */
  def run(loom: LoomPartitioner, stream: Seq[LEdge]): LoomLayers = {
    val l     = new LoomLayers
    val start = System.nanoTime()
    val it    = stream.iterator
    while (it.hasNext) {
      val e    = it.next()
      val ldg0 = loom.ldgEdges
      val ev0  = loom.evictions
      val t0   = System.nanoTime()
      loom.add(e)
      val dt = System.nanoTime() - t0
      if (loom.ldgEdges != ldg0) { l.nonmotifNs += dt; l.nonmotifEdges += 1 }
      else if (loom.evictions != ev0) { l.evictInsertNs += dt; l.evictInsertEdges += 1 }
      else { l.insertNs += dt; l.insertEdges += 1 }
      val w = loom.matcher.windowSize
      val c = loom.matcher.matchCount
      if (w > l.windowPeak) l.windowPeak = w
      if (c > l.liveMatchesPeak) l.liveMatchesPeak = c
      l.liveMatchesSum += c
    }
    val t0 = System.nanoTime()
    loom.finish()
    val end = System.nanoTime()
    l.finishNs = end - t0
    l.wallNs = end - start
    l
  }
}

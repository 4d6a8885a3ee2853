package repro.partition

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{LoomPartitioner, MotifIndex, TPSTry}
import repro.core.Model._
import repro.core.Signature.LabelCoder
import repro.workloads.Workloads

/** Fuzz tests of the four streaming partitioners' invariants on what an
  * online graph really sends: shuffled streams with exact and reversed
  * duplicates and labels outside the workload, up to more of them than
  * `LabelCoder` has values. No Spark.
  */
class StreamFuzzSpec extends AnyFunSuite {

  private val datasets = Vector("DBLP", "ProvGen", "MusicBrainz", "LUBM-100")

  /** A shuffled seeded labelled stream over `w`'s edge labels plus the
    * labels `outside` it: edges mostly along the workload's label pairs, 30
    * vertices per label of which the first is a hub (15% of picks), then
    * exact (10%) and reversed (10%) repeats of those edges, all shuffled.
    */
  private def fuzzStream(w: Workload, seed: Int, size: Int, outside: Vector[String]): Vector[LEdge] = {
    val rnd    = new Random(seed)
    val pairs  = w.queries.flatMap(_._1.edgeLabelPairs).distinct
    val labels = (pairs.flatMap { case (a, b) => Vector(a, b) } ++ outside).distinct
    def vertex(l: String): VId = {
      val i = if (rnd.nextDouble() < 0.15) 0 else rnd.nextInt(30)
      (labels.indexOf(l) * 30 + i + 1).toLong * 0x9E3779B97F4A7C15L
    }
    val base = Vector.fill(size) {
      val (la, lb) =
        if (rnd.nextDouble() < 0.8) pairs(rnd.nextInt(pairs.size))
        else (labels(rnd.nextInt(labels.size)), labels(rnd.nextInt(labels.size)))
      (vertex(la), la, vertex(lb), lb)
    }.collect { case (u, la, v, lb) if u != v => LEdge(u, la, v, lb) }
    val exact    = Vector.fill(size / 10)(base(rnd.nextInt(base.size)))
    val reversed = Vector.fill(size / 10)(base(rnd.nextInt(base.size))).map(e => LEdge(e.v, e.vLabel, e.u, e.uLabel))
    rnd.shuffle(base ++ exact ++ reversed)
  }

  private def motifIndex(w: Workload): MotifIndex =
    TPSTry.ofWorkload(w)(new LabelCoder()).motifIndex(0.4)

  /** Every configuration: dataset, seed, stream size, k, Loom's window and
    * the labels outside the workload: two on each dataset, then 300 on DBLP,
    * more than the 250 values `LabelCoder` has at p = 251.
    */
  private val configs = (for {
    (d, i)          <- datasets.zipWithIndex
    (size, k, win)  <- Vector((400, 2, 10), (1200, 4, 50), (1200, 8, 400))
  } yield (d, 31 * i + size + k, size, k, win, Vector("Outside", "Stranger"))) :+
    (("DBLP", 7, 3000, 8, 400, Vector.tabulate(300)(i => s"Outside$i")))

  private def partitioners(w: Workload, k: Int, n: Long, m: Long, window: Int): Vector[StreamingPartitioner] =
    Vector(new HashPartitioner(k, n), GreedyPartitioner.ldg(k, n), GreedyPartitioner.fennel(k, n, m),
           new LoomPartitioner(k, n, motifIndex(w), window))

  test("every stream vertex is assigned exactly once, by every partitioner") {
    configs.foreach { case (d, seed, size, k, window, outside) =>
      val w      = Workloads.forDataset(d)
      val stream = fuzzStream(w, seed, size, outside)
      val verts  = stream.flatMap(e => Vector(e.u, e.v)).toSet
      val labels = stream.flatMap(e => Vector(e.uLabel, e.vLabel)).toSet
      // The many-label input must really send more outside labels than the
      // coder has values.
      assert(outside.size <= 250 || outside.count(labels) > 250, s"$d seed $seed")
      partitioners(w, k, verts.size, stream.size, window).foreach { p =>
        val pmap = StreamingPartitioner.run(p, stream.iterator)
        assert(pmap.keySet == verts, s"${p.name} on $d seed $seed")
        assert(p.state.sizes.sum == verts.size, s"${p.name} on $d seed $seed")
      }
    }
  }

  test("Loom keeps its window and capacity bounds on every edge") {
    configs.foreach { case (d, seed, size, k, window, outside) =>
      val w      = Workloads.forDataset(d)
      val stream = fuzzStream(w, seed, size, outside)
      val n      = stream.flatMap(e => Vector(e.u, e.v)).distinct.size
      val index  = motifIndex(w)
      val loom   = new LoomPartitioner(k, n, index, window)
      val slack  = 2 * (index.maxMotifEdges + 1)
      stream.foreach { e =>
        loom.add(e)
        assert(loom.matcher.windowSize <= window, s"$d seed $seed: window after $e")
        assert(loom.state.sizes.max <= loom.state.capacity + slack, s"$d seed $seed: sizes after $e")
      }
      loom.finish()
      assert(loom.state.sizes.max <= loom.state.capacity + slack,
             s"$d seed $seed: sizes ${loom.state.sizes}, capacity ${loom.state.capacity}")
    }
  }

  test("the same seed gives the same pmap, for every partitioner") {
    configs.foreach { case (d, seed, size, k, window, outside) =>
      val w      = Workloads.forDataset(d)
      val n      = fuzzStream(w, seed, size, outside).flatMap(e => Vector(e.u, e.v)).distinct.size
      def runAll(): Vector[Map[VId, Int]] = {
        val stream = fuzzStream(w, seed, size, outside)
        partitioners(w, k, n, stream.size, window).map(p => StreamingPartitioner.run(p, stream.iterator))
      }
      assert(runAll() == runAll(), s"$d seed $seed")
    }
  }

  test("a stream edge may not be a self-loop") {
    intercept[IllegalArgumentException](LEdge(7, "a", 7, "a"))
    intercept[IllegalArgumentException](LEdge(7, "a", 7, "b"))
  }
}

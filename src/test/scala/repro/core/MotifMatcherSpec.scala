package repro.core

import org.scalacheck.Gen
import repro.{GenDriven, SparkSpec}
import repro.core.Model._
import repro.core.Signature._
import repro.partition.VertexIds

/** Motif matcher tests (paper §3, Alg. 2, Fig. 5).
  *
  * The key oracle: after streaming any window of motif-compatible edges, the
  * matchList must contain exactly the connected sub-graphs of the window
  * whose signature equals a motif's signature (brute-force enumeration).
  *
  * The matcher speaks dense ids only; [[Fed]] encodes a test stream for it
  * and decodes its answers: a fresh matcher's edge ids are arrival numbers,
  * so edge id i is the stream's edge i.
  */
class MotifMatcherSpec extends SparkSpec with GenDriven {
  import MotifMatcherSpec.Found
  import QueryGraph._

  private def mkIndex(w: Workload, threshold: Double = 0.4)
                     (implicit c: LabelCoder): MotifIndex =
    TPSTry.ofWorkload(w).motifIndex(threshold)

  /** Brute force: all connected sub-graphs of `edges` (≤ maxE edges) whose
    * signatures match a motif.
    */
  private def bruteMatches(edges: Vector[LEdge], index: MotifIndex)
                          (implicit c: LabelCoder): Set[Set[LEdge]] = {
    val motifSigs = index.motifs.map(_.sig).toSet
    val maxE      = index.maxMotifEdges
    val found     = scala.collection.mutable.Set.empty[Set[LEdge]]
    val frontier  = scala.collection.mutable.Queue.empty[Set[LEdge]]
    edges.foreach(e => frontier.enqueue(Set(e)))
    val seen = scala.collection.mutable.Set.empty[Set[LEdge]]
    while (frontier.nonEmpty) {
      val s = frontier.dequeue()
      if (seen.add(s)) {
        if (motifSigs.contains(ofSubGraph(SubGraph(s)))) found += s
        if (s.size < maxE) {
          val sub = SubGraph(s)
          edges.filter(e => !s.contains(e) && sub.incident(e))
            .foreach(e => frontier.enqueue(s + e))
        }
      }
    }
    found.toSet
  }

  /** A fresh matcher and the stream fed to it so far. */
  private final class Fed(index: MotifIndex) {
    val m           = new MotifMatcher(index)
    private val ids = new VertexIds
    var stream      = Vector.empty[LEdge]

    /** Insert e (it must match a single-edge motif); returns its edge id. */
    def insert(e: LEdge): Int = {
      val (lu, lv) = (index.label(e.uLabel), index.label(e.vLabel))
      val node     = index.singleEdge(lu, lv)
      assert(node >= 0, s"test stream edge $e must match a single-edge motif")
      m.insert(ids.id(e.u), lu, ids.id(e.v), lv, node)
      stream :+= e
      stream.size - 1
    }

    /** Live matches containing edge id e, in registration order. */
    def containing(e: Int): Vector[Found] = {
      val c = m.containing(e)
      Vector.tabulate(c.count)(i => Found(c.id(i), Vector.tabulate(c.size(i))(j => stream(c.edge(i, j)))))
    }

    /** Ids of the window edges, in arrival order. */
    def window: Vector[Int] = stream.indices.filter(e => m.containing(e).count > 0).toVector

    /** Every live match, by id. */
    def all: Vector[Found] = window.flatMap(containing).distinct.sortBy(_.id)

    def matchSets: Set[Set[LEdge]] = all.map(_.edges.toSet).toSet

    /** The live matches equal the brute-force enumeration, and no two of
      * them share an edge set (the set comparison alone would hide that).
      */
    def assertBrute(brute: Set[Set[LEdge]], clue: String = ""): Unit = {
      assert(all.size == matchSets.size, s"two live matches share an edge set $clue")
      assert(matchSets == brute, clue)
    }

    /** Live matches with vertex v, in registration order. */
    def at(v: VId): Vector[Found] = all.filter(_.edges.exists(_.contains(v)))
  }

  /** Stream edges through a fresh matcher. */
  private def streamAll(edges: Vector[LEdge], index: MotifIndex): Fed = {
    val f = new Fed(index)
    edges.foreach(f.insert)
    f
  }

  test("single-edge motif match populates matchList for both endpoints (Fig. 5, e1)") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val e1    = LEdge(1, "a", 2, "b")
    val f     = streamAll(Vector(e1), index)
    assert(f.at(1).map(_.edges.toSet) == Vector(Set(e1)))
    assert(f.at(2).map(_.edges.toSet) == Vector(Set(e1)))
    assert(f.m.windowSize == 1)
  }

  test("non-motif edges are rejected before the window (Fig. 5 semantics)") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    assert(index.singleEdge(index.label("b"), index.label("c")) < 0)
  }

  test("growing a single-edge match by an incident edge finds the 2-edge motif") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val e1    = LEdge(1, "a", 2, "b")
    val e2    = LEdge(3, "a", 2, "b")
    val f     = streamAll(Vector(e1, e2), index)
    val sets  = f.matchSets
    assert(sets.contains(Set(e1)))
    assert(sets.contains(Set(e2)))
    assert(sets.contains(Set(e1, e2)), "a-b-a match must be discovered")
    // The 2-edge match is registered for all three vertices.
    assert(f.at(1).exists(_.edges.toSet == Set(e1, e2)))
    assert(f.at(2).exists(_.edges.toSet == Set(e1, e2)))
    assert(f.at(3).exists(_.edges.toSet == Set(e1, e2)))
  }

  test("non-incident edges do not combine") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val e1    = LEdge(1, "a", 2, "b")
    val e2    = LEdge(30, "a", 40, "b")
    val f     = streamAll(Vector(e1, e2), index)
    assert(!f.matchSets.contains(Set(e1, e2)))
  }

  test("pair joining: three-edge motif formed by combining two matches (Fig. 5, e5)") {
    implicit val c: LabelCoder = new LabelCoder()
    // Motif: b - a - b - a chain (3 edges).
    val index = mkIndex(Workload(Vector(path("b", "a", "b", "a") -> 1.0)))
    val e1 = LEdge(1, "b", 2, "a")   // b-a
    val e2 = LEdge(3, "b", 4, "a")   // b-a (disconnected from e1 for now)
    val e5 = LEdge(2, "a", 3, "b")   // bridges them
    val sets = streamAll(Vector(e1, e2, e5), index).matchSets
    assert(sets.contains(Set(e1, e5)), "2-edge sub-motif via grow")
    assert(sets.contains(Set(e2, e5)), "2-edge sub-motif via grow")
    assert(sets.contains(Set(e1, e2, e5)), "3-edge motif via pair join")
  }

  test("matchList equals brute-force motif enumeration on a hand-built window") {
    implicit val c: LabelCoder = new LabelCoder()
    val w = Workload(Vector(
      path("a", "b", "a")      -> 2.0,
      path("b", "a", "b", "a") -> 1.0,
      star("b", "a", "a", "a") -> 1.0,
    ))
    val index = mkIndex(w)
    val edges = Vector(
      LEdge(1, "a", 2, "b"), LEdge(3, "a", 2, "b"), LEdge(3, "a", 4, "b"),
      LEdge(5, "a", 4, "b"), LEdge(5, "a", 2, "b"), LEdge(6, "a", 4, "b"),
    )
    streamAll(edges, index).assertBrute(bruteMatches(edges, index))
  }

  test("property: matchList equals brute-force enumeration on random streams") {
    implicit val c: LabelCoder = new LabelCoder()
    val w = Workload(Vector(
      path("a", "b", "a")      -> 2.0,
      path("a", "b", "a", "b") -> 1.0,
    ))
    val index = mkIndex(w)
    // Random bipartite-ish streams of a-b edges over few vertices.
    val edgeGen = for {
      n  <- Gen.choose(2, 8)
      es <- Gen.listOfN(n, for {
        ua <- Gen.choose(0, 3)   // a-labelled ids 0..3
        vb <- Gen.choose(10, 13) // b-labelled ids 10..13
      } yield LEdge(ua.toLong, "a", vb.toLong, "b"))
    } yield es.distinct.toVector
    forAllG(edgeGen, n = 40) { es =>
      streamAll(es, index).assertBrute(bruteMatches(es, index), s"for stream $es")
    }
  }

  test("removeEdges drops the edge and every match referencing it") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val e1 = LEdge(1, "a", 2, "b")
    val e2 = LEdge(3, "a", 2, "b")
    val f  = streamAll(Vector(e1, e2), index)
    f.m.removeEdge(0)
    assert(f.m.windowSize == 1)
    val sets = f.matchSets
    assert(sets == Set(Set(e2)), s"only e2's single-edge match should remain: $sets")
    assert(f.at(1).isEmpty)
  }

  test("oldestEdge follows insertion order across removals") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(singleEdge("a", "b") -> 1.0)))
    val es = Vector(LEdge(1, "a", 2, "b"), LEdge(3, "a", 4, "b"), LEdge(5, "a", 6, "b"))
    val m  = streamAll(es, index).m
    assert(m.oldest == 0)
    m.removeEdge(0)
    assert(m.oldest == 1)
    m.removeEdge(1)
    assert(m.oldest == 2)
  }

  test("matches never exceed the largest motif size") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    // Long a-b chain: many overlapping 2-edge motifs, no larger matches.
    val es = (0 until 10).map { i =>
      if (i % 2 == 0) LEdge(i.toLong, "a", (i + 1).toLong, "b")
      else LEdge((i + 1).toLong, "a", i.toLong, "b")
    }.toVector
    val f = streamAll(es, index)
    f.window.flatMap(f.containing).foreach { mm =>
      assert(mm.size <= index.maxMotifEdges)
    }
  }

  // ---------- the orders Loom's partitioning reads ----------

  test("matchesContaining(e) returns matches in registration order") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0, path("b", "a", "b") -> 1.0)))
    val e  = LEdge(1, "a", 2, "b")
    val es = Vector(e, LEdge(3, "a", 2, "b"), LEdge(1, "a", 4, "b"), LEdge(5, "a", 2, "b"))
    val ms = streamAll(es, index).containing(0)
    assert(ms.map(_.id) == ms.map(_.id).sorted, "ids are registration numbers")
    // {e} on arrival, then each later edge's growth of it.
    assert(ms.map(_.edges) == Vector(Vector(e), Vector(e, es(1)), Vector(e, es(2)), Vector(e, es(3))))
  }

  test("growth visits u's growable matches before v's") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0, path("b", "a", "b") -> 1.0)))
    val atA = LEdge(30, "a", 40, "b") // meets the new edge at its a-end
    val atB = LEdge(10, "a", 20, "b") // meets the new edge at its b-end
    def grownOrder(e: LEdge): Vector[Vector[LEdge]] =
      streamAll(Vector(atB, atA, e), index).containing(2).filter(_.size == 2).map(_.edges)
    // The new edge's first endpoint is u: its growable matches grow first.
    assert(grownOrder(LEdge(30, "a", 20, "b")) ==
             Vector(Vector(atA, LEdge(30, "a", 20, "b")), Vector(atB, LEdge(30, "a", 20, "b"))))
    assert(grownOrder(LEdge(20, "b", 30, "a")) ==
             Vector(Vector(atB, LEdge(20, "b", 30, "a")), Vector(atA, LEdge(20, "b", 30, "a"))))
  }

  test("a reversed duplicate enters the window as a second edge") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(singleEdge("a", "b") -> 1.0)))
    val e   = LEdge(1, "a", 2, "b")
    val rev = LEdge(2, "b", 1, "a")
    val f   = streamAll(Vector(e, rev), index)
    assert(f.m.windowSize == 2)
    f.m.removeEdge(0)
    assert(f.window.map(f.stream) == Vector(rev))
    // Once e has left the window, it may enter again.
    f.insert(e)
    assert(f.m.windowSize == 2)
    // So may an exact duplicate of an edge still in the window: it is a
    // second edge, with its own single-edge match, and either copy leaves
    // without the other.
    val dup = f.insert(e)
    assert(f.m.windowSize == 3)
    assert(f.window == Vector(1, 2, dup))
    assert(f.containing(2).map(_.edges) == Vector(Vector(e)))
    assert(f.containing(dup).map(_.edges) == Vector(Vector(e)))
    f.m.removeEdge(2)
    assert(f.window == Vector(1, dup))
    assert(f.containing(dup).map(_.edges) == Vector(Vector(e)))
  }
}

object MotifMatcherSpec {

  /** A live match as the tests read it: its id (registration number) and
    * its edges in insertion order.
    */
  final case class Found(id: Int, edges: Vector[LEdge]) {
    def size: Int = edges.size
  }
}

package repro.core

import org.scalacheck.Gen
import repro.{GenDriven, SparkSpec}
import repro.core.Model._
import repro.core.Signature._

/** Motif matcher tests (paper §3, Alg. 2, Fig. 5).
  *
  * The key oracle: after streaming any window of motif-compatible edges, the
  * matchList must contain exactly the connected sub-graphs of the window
  * whose signature equals a motif's signature (brute-force enumeration).
  */
class MotifMatcherSpec extends SparkSpec with GenDriven {
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

  /** Stream edges through a matcher, returning it (all edges must be motif-
    * compatible single edges).
    */
  private def streamAll(edges: Vector[LEdge], index: MotifIndex): MotifMatcher = {
    val m = new MotifMatcher(index)
    edges.foreach { e =>
      val node = m.singleEdgeMotif(e)
      assert(node.isDefined, s"test stream edge $e must match a single-edge motif")
      m.insert(e, node.get)
    }
    m
  }

  private def allMatchSets(m: MotifMatcher): Set[Set[LEdge]] =
    m.windowEdges.flatMap(e => m.matchesContaining(e)).map(_.edges.toSet).toSet

  test("single-edge motif match populates matchList for both endpoints (Fig. 5, e1)") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val m     = new MotifMatcher(index)
    val e1    = LEdge(1, "a", 2, "b")
    m.insert(e1, m.singleEdgeMotif(e1).get)
    assert(m.matchesAt(1).map(_.edges.toSet) == Vector(Set(e1)))
    assert(m.matchesAt(2).map(_.edges.toSet) == Vector(Set(e1)))
    assert(m.windowSize == 1)
  }

  test("non-motif edges are rejected before the window (Fig. 5 semantics)") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val m     = new MotifMatcher(index)
    assert(m.singleEdgeMotif(LEdge(1, "b", 2, "c")).isEmpty)
  }

  test("growing a single-edge match by an incident edge finds the 2-edge motif") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val e1    = LEdge(1, "a", 2, "b")
    val e2    = LEdge(3, "a", 2, "b")
    val m     = streamAll(Vector(e1, e2), index)
    val sets  = allMatchSets(m)
    assert(sets.contains(Set(e1)))
    assert(sets.contains(Set(e2)))
    assert(sets.contains(Set(e1, e2)), "a-b-a match must be discovered")
    // The 2-edge match is registered for all three vertices.
    assert(m.matchesAt(1).exists(_.edges.toSet == Set(e1, e2)))
    assert(m.matchesAt(2).exists(_.edges.toSet == Set(e1, e2)))
    assert(m.matchesAt(3).exists(_.edges.toSet == Set(e1, e2)))
  }

  test("non-incident edges do not combine") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val e1    = LEdge(1, "a", 2, "b")
    val e2    = LEdge(30, "a", 40, "b")
    val m     = streamAll(Vector(e1, e2), index)
    assert(!allMatchSets(m).contains(Set(e1, e2)))
  }

  test("pair joining: three-edge motif formed by combining two matches (Fig. 5, e5)") {
    implicit val c: LabelCoder = new LabelCoder()
    // Motif: b - a - b - a chain (3 edges).
    val index = mkIndex(Workload(Vector(path("b", "a", "b", "a") -> 1.0)))
    val e1 = LEdge(1, "b", 2, "a")   // b-a
    val e2 = LEdge(3, "b", 4, "a")   // b-a (disconnected from e1 for now)
    val e5 = LEdge(2, "a", 3, "b")   // bridges them
    val m  = streamAll(Vector(e1, e2, e5), index)
    val sets = allMatchSets(m)
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
    val m = streamAll(edges, index)
    assert(allMatchSets(m) == bruteMatches(edges, index))
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
      val m = streamAll(es, index)
      assert(allMatchSets(m) == bruteMatches(es, index),
             s"mismatch for stream $es")
    }
  }

  test("removeEdges drops the edge and every match referencing it") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    val e1 = LEdge(1, "a", 2, "b")
    val e2 = LEdge(3, "a", 2, "b")
    val m  = streamAll(Vector(e1, e2), index)
    m.removeEdges(Set(e1))
    assert(m.windowSize == 1)
    val sets = allMatchSets(m)
    assert(sets == Set(Set(e2)), s"only e2's single-edge match should remain: $sets")
    assert(m.matchesAt(1).isEmpty)
  }

  test("oldestEdge follows insertion order across removals") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(singleEdge("a", "b") -> 1.0)))
    val es = Vector(LEdge(1, "a", 2, "b"), LEdge(3, "a", 4, "b"), LEdge(5, "a", 6, "b"))
    val m  = streamAll(es, index)
    assert(m.oldestEdge.contains(es(0)))
    m.removeEdges(Set(es(0)))
    assert(m.oldestEdge.contains(es(1)))
    m.removeEdges(Set(es(1)))
    assert(m.oldestEdge.contains(es(2)))
  }

  test("duplicate stream edges are rejected") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(singleEdge("a", "b") -> 1.0)))
    val m  = new MotifMatcher(index)
    val e  = LEdge(1, "a", 2, "b")
    m.insert(e, m.singleEdgeMotif(e).get)
    intercept[IllegalArgumentException] { m.insert(e, m.singleEdgeMotif(e).get) }
  }

  test("matches never exceed the largest motif size") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0)))
    // Long a-b chain: many overlapping 2-edge motifs, no larger matches.
    val es = (0 until 10).map { i =>
      if (i % 2 == 0) LEdge(i.toLong, "a", (i + 1).toLong, "b")
      else LEdge((i + 1).toLong, "a", i.toLong, "b")
    }.toVector
    val m = streamAll(es, index)
    m.windowEdges.flatMap(m.matchesContaining).foreach { mm =>
      assert(mm.size <= index.maxMotifEdges)
    }
  }

  // ---------- the orders Loom's partitioning reads ----------

  test("matchesContaining(e) returns matches in registration order") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0, path("b", "a", "b") -> 1.0)))
    val e  = LEdge(1, "a", 2, "b")
    val es = Vector(e, LEdge(3, "a", 2, "b"), LEdge(1, "a", 4, "b"), LEdge(5, "a", 2, "b"))
    val m  = streamAll(es, index)
    val ms = m.matchesContaining(e)
    assert(ms.map(_.id) == ms.map(_.id).sorted, "ids are registration numbers")
    // {e} on arrival, then each later edge's growth of it.
    assert(ms.map(_.edges) == Vector(Vector(e), Vector(e, es(1)), Vector(e, es(2)), Vector(e, es(3))))
  }

  test("growth visits u's growable matches before v's") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(path("a", "b", "a") -> 1.0, path("b", "a", "b") -> 1.0)))
    val atA = LEdge(30, "a", 40, "b") // meets the new edge at its a-end
    val atB = LEdge(10, "a", 20, "b") // meets the new edge at its b-end
    def grownOrder(e: LEdge): Vector[Vector[LEdge]] = {
      val m = streamAll(Vector(atB, atA, e), index)
      m.matchesContaining(e).filter(_.size == 2).map(_.edges)
    }
    // The new edge's first endpoint is u: its growable matches grow first.
    assert(grownOrder(LEdge(30, "a", 20, "b")) ==
             Vector(Vector(atA, LEdge(30, "a", 20, "b")), Vector(atB, LEdge(30, "a", 20, "b"))))
    assert(grownOrder(LEdge(20, "b", 30, "a")) ==
             Vector(Vector(atB, LEdge(20, "b", 30, "a")), Vector(atA, LEdge(20, "b", 30, "a"))))
  }

  test("a reversed duplicate enters the window as a second edge") {
    implicit val c: LabelCoder = new LabelCoder()
    val index = mkIndex(Workload(Vector(singleEdge("a", "b") -> 1.0)))
    val e = LEdge(1, "a", 2, "b")
    val m = streamAll(Vector(e, LEdge(2, "b", 1, "a")), index)
    assert(m.windowSize == 2)
    m.removeEdges(Set(e))
    assert(m.windowEdges == Vector(LEdge(2, "b", 1, "a")))
    // Once e has left the window, it may enter again.
    m.insert(e, m.singleEdgeMotif(e).get)
    assert(m.windowSize == 2)
  }
}

package repro.graphgen

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Tests for the schema-driven Spark graph generators (Table 1 substrate). */
class GraphGenSpec extends SparkSpec {

  private val tinySf = 0.02

  test("ranges partition the vertex id space without gaps") {
    val schema = Datasets.dblp.schema
    val n      = 1000L
    val ranges = schema.ranges(n)
    val sortedRanges = ranges.values.toVector.sortBy(_._1)
    assert(sortedRanges.head._1 == 0L)
    sortedRanges.sliding(2).foreach {
      case Vector((s1, c1), (s2, _)) => assert(s1 + c1 == s2, "ranges must be contiguous")
      case _                         =>
    }
    val (lastStart, lastCnt) = sortedRanges.last
    assert(lastStart + lastCnt == n)
  }

  test("every label gets a non-empty range even at tiny n") {
    Datasets.all.foreach { d =>
      val ranges = d.schema.ranges(100)
      ranges.values.foreach { case (_, cnt) => assert(cnt >= 1) }
    }
  }

  test("schema validation rejects unknown labels and bad weights") {
    intercept[IllegalArgumentException] {
      GraphSchema("x", Vector("a" -> 1.0), Vector(EdgeType("a", "zzz", 1.0)))
    }
    intercept[IllegalArgumentException] { EdgeType("a", "a", 0.0) }
    intercept[IllegalArgumentException] { EdgeType("a", "a", 1.0, srcSkew = 0.5) }
  }

  test("generated edges are canonical (u < v), loop-free and deduplicated") {
    val df = Datasets.provgen.generate(spark, tinySf).cache()
    try {
      assert(df.where(col("u") >= col("v")).count() == 0)
      assert(df.groupBy("u", "v").count().where(col("count") > 1).count() == 0)
    } finally df.unpersist()
  }

  test("edge labels are consistent with the schema's vertex id ranges") {
    val d      = Datasets.provgen
    val n      = math.max(16L, (d.nVertices * tinySf).toLong)
    val ranges = d.schema.ranges(n)
    val rows   = d.generate(spark, tinySf).collect()
    rows.foreach { r =>
      val (u, ul, v, vl) = (r.getLong(0), r.getString(1), r.getLong(2), r.getString(3))
      val (us, uc) = ranges(ul)
      val (vs, vc) = ranges(vl)
      assert(u >= us && u < us + uc, s"vertex $u outside $ul range")
      assert(v >= vs && v < vs + vc, s"vertex $v outside $vl range")
    }
  }

  test("every edge's label pair is an allowed schema edge type") {
    val d       = Datasets.dblp
    val allowed = d.schema.edgeTypes.flatMap(t =>
      Seq((t.srcLabel, t.dstLabel), (t.dstLabel, t.srcLabel))).toSet
    val pairs = d.generate(spark, tinySf).select("ul", "vl").distinct().collect()
      .map(r => (r.getString(0), r.getString(1)))
    pairs.foreach(p => assert(allowed.contains(p), s"unexpected edge type $p"))
  }

  test("generation is deterministic in (sf, seed)") {
    val a = Datasets.dblp.generate(spark, tinySf, seed = 3).collect().toSet
    val b = Datasets.dblp.generate(spark, tinySf, seed = 3).collect().toSet
    val c = Datasets.dblp.generate(spark, tinySf, seed = 4).collect().toSet
    assert(a == b)
    assert(a != c, "different seeds should give different graphs")
  }

  test("realised edge counts are near the requested budget for all datasets") {
    Datasets.all.foreach { d =>
      val requested = math.max(16L, (d.mEdges * tinySf).toLong)
      val m         = d.generate(spark, tinySf).count()
      assert(m > requested / 3 && m <= requested,
             s"${d.name}: realised $m of requested $requested")
    }
  }

  test("label alphabet sizes match the paper's Table 1") {
    assert(Datasets.dblp.numLabels == 8)
    assert(Datasets.provgen.numLabels == 3)
    assert(Datasets.musicbrainz.numLabels == 12)
    assert(Datasets.lubm100.numLabels == 15)
    assert(Datasets.lubm4000.numLabels == 15)
  }

  test("skewed edge types produce hub vertices") {
    // DBLP citations have dstSkew = 3: top in-degree should far exceed the mean.
    val df = Datasets.dblp.generate(spark, 0.2)
      .where(col("ul") === "Paper" && col("vl") === "Paper")
    val degs = df.select(explode(array(col("u"), col("v"))) as "x")
      .groupBy("x").count().select("count").collect().map(_.getLong(0))
    val mean = degs.sum.toDouble / degs.length
    assert(degs.max > 5 * mean, s"max degree ${degs.max} vs mean $mean")
  }

  test("all five datasets generate non-empty graphs at tiny scale") {
    Datasets.all.foreach { d =>
      assert(d.generate(spark, 0.005).count() > 0, s"${d.name} empty")
    }
  }
}

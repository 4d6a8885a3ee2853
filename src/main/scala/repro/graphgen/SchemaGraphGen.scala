package repro.graphgen

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}

/** Spark DataFrame generator for schema-driven labelled graphs.
  *
  * Deterministic in (schema, n, m, seed). Randomness is *stateless*: every
  * uniform draw is `xxhash64(rowId, seedOffset)` mapped into [0, 1), so a
  * value depends only on (rowId, seed) — never on Spark partitioning,
  * projection collapse, or lazy `when` branches. (Stateful `rand(seed)`
  * expressions get duplicated across operators by Catalyst and those copies
  * desynchronise when a branch or filter skips an evaluation, silently
  * decorrelating columns — e.g. destroying the community coupling below.)
  *
  * The result is a simple undirected graph as a DataFrame with columns
  * `(u: long, ul: string, v: long, vl: string)`, canonicalised `u < v`,
  * duplicate edges and self-loops removed (so the realised edge count is
  * slightly below the requested m; benches report realised counts).
  */
object SchemaGraphGen {

  private val HashMod = 1000000007L

  /** Community structure: vertices of every label are partitioned into
    * `CommunityCount` blocks; an edge keeps both endpoints in the same block
    * with probability `IntraProb` (real graphs — co-authorship, music
    * metadata, universities — are strongly clustered; without locality no
    * partitioner can beat random placement by much).
    *
    * Edge types carry an `axis`: axis-0 types connect block c to block c;
    * axis-1 types connect block c to the block π(c) = (5c + 3) mod 32 (5 is
    * coprime to 32, so π is a bijection scattering neighbouring blocks).
    * Both axes are individually coherent, but they disagree — no single
    * partitioning respects both. This models real heterogeneous graphs,
    * where different relations cluster along different dimensions (artists
    * group by collaboration for albums but by country for origin), and is
    * precisely the regime the paper targets: a workload-agnostic min-cut
    * partitioner optimises a compromise across all relations, while a
    * workload-aware one follows only the queried axis (§1).
    */
  private val CommunityCount = 32
  private val IntraProb      = 0.9

  /** Stateless uniform in [0, 1) derived from the row id and a seed offset. */
  private def u01(idCol: Column, seed: Long): Column =
    pmod(xxhash64(idCol, lit(seed)), lit(HashMod)).cast(DoubleType) / lit(HashMod.toDouble)

  /** Generate the edge DataFrame for `schema` with ~n vertices and ~m edges. */
  def edges(spark: SparkSession, schema: GraphSchema, n: Long, m: Long,
            seed: Long = 7L): DataFrame = {
    val ranges      = schema.ranges(n)
    val totalWeight = schema.edgeTypes.map(_.weight).sum

    val perType = schema.edgeTypes.zipWithIndex.map { case (t, i) =>
      val rows               = math.max(1L, math.round(m * t.weight / totalWeight))
      val (srcStart, srcCnt) = ranges(t.srcLabel)
      val (dstStart, dstCnt) = ranges(t.dstLabel)
      val s                  = seed + 1000L * i
      val id                 = col("id")

      // Community of the edge, and of the destination endpoint: with
      // probability IntraProb the edge respects its axis's block structure
      // (axis 0: dst block = src block; axis 1: dst block = π(src block)).
      val srcComm = floor(u01(id, s + 2) * CommunityCount).cast(LongType)
      val axisDst =
        if (t.axis == 0) srcComm
        else pmod(srcComm * 5 + 3, lit(CommunityCount.toLong))
      val dstComm = when(u01(id, s + 3) < IntraProb, axisDst)
        .otherwise(floor(u01(id, s + 4) * CommunityCount).cast(LongType))

      // Power-law endpoint draw inside the label's slice for the community:
      // floor(localCnt * r^skew) concentrates on low ids when skew > 1
      // (hub vertices, one cluster per community).
      def draw(start: Long, cnt: Long, skew: Double, community: Column,
               r: Column): Column = {
        val sliceLen   = math.max(1L, cnt / CommunityCount)
        val sliceStart = least(community * sliceLen, lit(cnt - 1))
        val localCnt   = least(lit(sliceLen), lit(cnt) - sliceStart)
        lit(start) + sliceStart +
          least(localCnt - 1, floor(localCnt * pow(r, lit(skew))).cast(LongType))
      }

      spark.range(rows).select(
        draw(srcStart, srcCnt, t.srcSkew, srcComm, u01(id, s))     as "a",
        draw(dstStart, dstCnt, t.dstSkew, dstComm, u01(id, s + 1)) as "b",
        lit(t.srcLabel)                                            as "al",
        lit(t.dstLabel)                                            as "bl",
      )
    }

    val raw = perType.reduce(_ unionAll _).where(col("a") =!= col("b"))
    // Canonicalise endpoint order (swap labels along with ids) and dedupe.
    raw.select(
      least(col("a"), col("b"))                                 as "u",
      when(col("a") < col("b"), col("al")).otherwise(col("bl")) as "ul",
      greatest(col("a"), col("b"))                              as "v",
      when(col("a") < col("b"), col("bl")).otherwise(col("al")) as "vl",
    ).dropDuplicates("u", "v")
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession

/** The Spark session of the mains, the tests and the benchmark. Shuffle
  * partitions come from `SPARK_SHUFFLE_PARTITIONS`, or else match the
  * session's default parallelism (the core count under `local[*]`).
  */
object JobUtil {
  def session(app: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val partitions = sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS",
                                       s.sparkContext.defaultParallelism.toString)
    s.conf.set("spark.sql.shuffle.partitions", partitions)
    s
  }
}

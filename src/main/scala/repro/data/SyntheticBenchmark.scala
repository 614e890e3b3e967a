package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.lake.DataLake

/** Analogue of the paper's Synthetic Benchmark (SB, §4.1): a small,
  * real-world-inspired 13-table lake with exactly 55 planted homographs,
  * each with 2 meanings.
  *
  * The paper generated its SB with Mockaroo (people, cities, cars, animals,
  * groceries, movies, ...), 1000 rows per table except the 193-row country
  * and 50-row US-state tables. Structural properties this generator
  * reproduces (DESIGN.md substitution 1):
  *
  *   - 20 of the 55 homographs are country/state-code abbreviations that
  *     occur *only* in the code columns of the two small tables (the paper
  *     reports 17 such homographs, and that BC fails on them because their
  *     two small domains intersect heavily and form a tiny component);
  *   - the remaining 35 homographs pair unrelated medium-size domains
  *     (city/first-name, animal/company, grocery/movie, ...);
  *   - columns sample pool *subsets* of widely varying cardinality
  *     (25-400), so unambiguous values in small columns have heterogeneous
  *     attribute neighbourhoods — the effect that makes LCC rank many
  *     unambiguous values above real homographs in the paper's Figure 5;
  *   - every non-enumeration column has 1000 rows with every chosen value
  *     occurring at least twice, so column content survives the paper's
  *     singleton-pruning rule, while the values unique to the two
  *     enumeration tables are pruned exactly as in the paper (~30% of SB).
  */
object SyntheticBenchmark {

  final case class SB(
      tables: Seq[(String, DataFrame)],
      lake: DataLake,
      homographs: Set[String],
      smallDomainHomographs: Set[String])

  val Rows = 1000
  val NumHomographs = 55

  def generate(spark: SparkSession, seed: Long = 0L): SB = {
    val rnd = new scala.util.Random(seed)

    // --- pools, keyed by tag; the upper-cased tag prefixes each token ---
    val pools = scala.collection.mutable.Map(Seq(
      "fname" -> 500, "lname" -> 500, "city" -> 400, "country" -> 193, "state" -> 50,
      "ccode" -> 193, "scode" -> 50, "carbrand" -> 60, "carmodel" -> 300, "animal" -> 250,
      "zoo" -> 120, "company" -> 300, "grocery" -> 250, "movie" -> 400,
    ).map { case (tag, n) => tag -> Vocab.pool(tag, n) }: _*)

    // --- plant the 55 homographs (each 2 meanings) ---
    val planted = Seq.newBuilder[String]
    val plantedInPool = scala.collection.mutable.Map.empty[String, List[String]].withDefaultValue(Nil)
    def plant(aTag: String, bTag: String, n: Int, prefix: String): Unit = {
      val (a2, b2, toks) = Vocab.plantHomographs(pools(aTag), pools(bTag), n, prefix, rnd.nextLong())
      pools(aTag) = a2
      pools(bTag) = b2
      planted ++= toks
      plantedInPool(aTag) = plantedInPool(aTag) ++ toks
      plantedInPool(bTag) = plantedInPool(bTag) ++ toks
    }

    // 20 code abbreviations shared between the two small enumeration-only
    // domains (the paper's 17 country/state abbreviation homographs).
    plant("ccode", "scode", 20, "HOMCODE")
    plant("city", "fname", 8, "HOMCITYNAME")
    plant("city", "carbrand", 4, "HOMCITYCAR")
    plant("animal", "company", 6, "HOMANIMALCO")
    plant("grocery", "movie", 6, "HOMGROCMOVIE")
    plant("country", "city", 5, "HOMCOUNTRYCITY")
    plant("animal", "zoo", 3, "HOMANIMALZOO")
    plant("company", "carbrand", 3, "HOMCOCAR")

    val homographs = planted.result()
    require(homographs.size == NumHomographs, s"planted ${homographs.size} != $NumHomographs")
    val codeHomographs = homographs.filter(_.startsWith("HOMCODE")).toSet

    // --- column construction ---
    // A column takes a `card`-sized random subset of its pool (always
    // including the pool's planted homographs so ground truth is exact),
    // then 1000 rows in which every subset value occurs at least twice.
    def column(tag: String, card: Int): IndexedSeq[String] = {
      val pool = pools(tag)
      val forced = plantedInPool(tag).filter(pool.contains)
      val rest = rnd.shuffle(pool.filterNot(forced.contains).toList)
      val sub = (forced ++ rest.take(math.max(0, card - forced.size))).toIndexedSeq
      val base = rnd.shuffle(sub ++ sub) // every value at least twice
      val extra = IndexedSeq.fill(Rows - base.size)(sub(rnd.nextInt(sub.size)))
      (base ++ extra).take(Rows)
    }

    import spark.implicits._
    def table2(n1: String, c1: IndexedSeq[String], n2: String, c2: IndexedSeq[String]): DataFrame =
      c1.zip(c2).toDF(n1, n2)
    def table3(n1: String, c1: IndexedSeq[String], n2: String, c2: IndexedSeq[String],
               n3: String, c3: IndexedSeq[String]): DataFrame =
      c1.indices.map(i => (c1(i), c2(i), c3(i))).toDF(n1, n2, n3)

    val tables: Seq[(String, DataFrame)] = Seq(
      "people" -> table3("first_name", column("fname", 400),
                         "last_name", column("lname", 400),
                         "city", column("city", 300)),
      "contacts" -> table3("first_name", column("fname", 150),
                           "last_name", column("lname", 150),
                           "company", column("company", 120)),
      "zoo_animals" -> table3("animal", column("animal", 200),
                              "zoo", column("zoo", 100),
                              "city", column("city", 40)),
      "donors" -> table2("company", column("company", 250),
                         "animal", column("animal", 60)),
      "cars" -> table3("car_model", column("carmodel", 250),
                       "car_brand", column("carbrand", 55),
                       "country", column("country", 80)),
      "car_sales" -> table3("car_brand", column("carbrand", 40),
                            "city", column("city", 150),
                            "car_model", column("carmodel", 100)),
      "offices" -> table3("company", column("company", 200),
                          "city", column("city", 60),
                          "country", column("country", 150)),
      "movies" -> table3("movie", column("movie", 350),
                         "director", column("fname", 60),
                         "studio", column("company", 40)),
      "groceries" -> table2("grocery", column("grocery", 220),
                            "brand", column("company", 90)),
      "employees" -> table3("first_name", column("fname", 300),
                            "last_name", column("lname", 300),
                            "company", column("company", 250)),
      "shipping" -> table3("city", column("city", 250),
                           "country", column("country", 180),
                           "grocery", column("grocery", 50)),
      // the two small enumeration tables; the *only* columns containing
      // country/state codes, mirroring the paper's SB
      "countries" -> table2("country", pools("country"), "country_code", pools("ccode")),
      "states" -> table2("state", pools("state"), "state_code", pools("scode")),
    )

    SB(tables, DataLake.fromTables(tables), homographs.toSet, codeHomographs)
  }
}

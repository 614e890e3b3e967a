package repro.core

import java.io.{DataOutputStream, OutputStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.security.{DigestOutputStream, MessageDigest}
import repro.SparkSpec
import repro.d4.D4
import repro.data.{SyntheticBenchmark, TusGen}
import repro.eval.Experiments
import repro.lake.DataLake

/** SHA-256 digests of the pipeline's outputs on fixed lakes, recorded once
  * and re-checked on every run, so a change that moves any output fails
  * here. A digest may only change in a change that says why.
  *
  * Pinned per lake: the cell counts (names, ids, counts), the CSR, the
  * value classes and their quotient, LCC's raw bits and |VN| per value;
  * D4's result on the SB lakes. BC is pinned as `DomainNet.score` returns
  * it: scores rounded to 1e-9 and the ranking. BC's raw bits are not
  * pinned, because they follow the slice count, and so the core count.
  */
class GoldenDigestSpec extends SparkSpec {
  import GoldenDigestSpec._

  private val lakes: Seq[(String, () => DataLake, Boolean, Map[String, String])] =
    (0 to 3).map(seed => (s"SB seed $seed", () => SyntheticBenchmark.generate(spark, seed).lake, true, SB(seed))) ++ Seq(
      ("TUS-I seed 0", () => TusGen.tusI(0).toLake(spark), false, TusI),
      ("TUS seed 0", () => TusGen.generate(TusGen.tusParams(0)).toLake(spark), false, Tus))

  for ((name, lake, withD4, expected) <- lakes)
    test(s"pipeline outputs match their recorded digests ($name)") {
      val got = digests(lake(), withD4)
      val moved = (got.keySet ++ expected.keySet).toSeq.sorted.filter(k => got.get(k) != expected.get(k))
      assert(moved.isEmpty, moved.map(k => s"$k: ${got.getOrElse(k, "-")}").mkString(s"$name, digests moved:\n", "\n", ""))
    }

  private def digests(lake: DataLake, withD4: Boolean): Map[String, String] = {
    val counts = CellCounts.of(lake)
    val graph = LakeGraph.of(counts, minOccurrences = 2)
    val csr = graph.csr
    val classes = ValueClasses.of(csr)
    def ranked(measure: DomainNet.Measure) = sha { out =>
      val r = DomainNet.score(spark, graph, csr, measure)
      doubles(out, r.score); ints(out, r.order)
    }
    val d4: Map[String, String] = if (!withD4) Map.empty else {
      val r = D4.discover(counts)
      Map("d4" -> sha { out =>
        r.columnDomains.toSeq.sorted.foreach { case (c, d) => string(out, c); out.writeLong(d) }
        r.domainsPerValue.toSeq.sorted.foreach { case (v, n) => string(out, v); out.writeInt(n) }
      })
    }
    d4 ++ Map(
      "cells.names" -> sha { out => counts.valueNames.foreach(string(out, _)); counts.attrNames.foreach(string(out, _)) },
      "cells.pairs" -> sha { out => ints(out, counts.valueIds); ints(out, counts.attrIds); counts.occurrences.foreach(out.writeLong) },
      "csr" -> sha { out => out.writeInt(csr.numValues); ints(out, csr.offsets); ints(out, csr.neighbors) },
      "classes" -> sha { out =>
        ints(out, Array.tabulate(csr.numValues)(classes.classOf))
        ints(out, classes.representative); ints(out, classes.size)
        ints(out, classes.quotient.offsets); ints(out, classes.quotient.neighbors)
      },
      "lcc" -> sha(doubles(_, Lcc.compute(spark, csr))),
      "card" -> sha(ints(_, Lcc.valueNeighbourCounts(csr))),
      "exactBC" -> ranked(DomainNet.ExactBC),
      "approxBC" -> ranked(DomainNet.ApproxBC(Experiments.bcSources(csr.numNodes), 7L)))
  }
}

object GoldenDigestSpec {

  private def sha(write: DataOutputStream => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    write(out)
    out.flush()
    md.digest().map(b => f"$b%02x").mkString
  }

  private def ints(out: DataOutputStream, a: Array[Int]): Unit = { out.writeInt(a.length); a.foreach(out.writeInt) }

  private def doubles(out: DataOutputStream, a: Array[Double]): Unit = {
    out.writeInt(a.length)
    a.foreach(x => out.writeLong(java.lang.Double.doubleToRawLongBits(x)))
  }

  private def string(out: DataOutputStream, s: String): Unit = {
    val b = s.getBytes(UTF_8)
    out.writeInt(b.length); out.write(b)
  }

  // Recorded at the commit this suite was added in.
  private val SB: IndexedSeq[Map[String, String]] = IndexedSeq(
    Map(
      "approxBC" -> "7991d6e92827da0fa6deca5ca2ef89a0201bfd9192640bad618849e60d97fae6",
      "card" -> "cbe78a4f6a7cf6d74c9738e4dd382c65f7fc226f4585245649f84a98f88530e8",
      "cells.names" -> "ace8b188b220192bdb85487d5bca7186fee9e633d51c5c85ebc3798c785e63df",
      "cells.pairs" -> "ba7639e3d2bf6240de0d253e6bcb8254fa460518ae6500ae69ff19aa6b86fc5a",
      "classes" -> "03ade43783fe201700a4d174b9596fda7d02c9e1dfa42f99e8c40b08a0ebfbd0",
      "csr" -> "4de989fe49f50b20cd3af2d1d987cbd6c935030d98e8fa73aefc6d8482f7ac7e",
      "d4" -> "d50c44598c1519320875a603c309b3227e29f4b8620104dde1718e964c5ef61a",
      "exactBC" -> "522ba0d0e13eb0632ed82bbab042bd064d0f26bd6c5ccf0fb33596709b3cda18",
      "lcc" -> "93c4deca04a3ed18b12880fb626819aba9ac2368005b74e98574dbdc8241094a"),
    Map(
      "approxBC" -> "ac8929ee1c8d73eefbc1d8ff74118ef348e05dd095a3152e299411c7c21fa609",
      "card" -> "e0abe4a4536855629daada782d6e845c54753afaf02643c53055da6ff49c6136",
      "cells.names" -> "0ad97857aedf18fc81531c3430d3340eddb2549be099484cffa466c58a87fe7c",
      "cells.pairs" -> "9d57cf73392e2464d9f6921e2ef42db0eb55752ba44e4489a9247699e10a431b",
      "classes" -> "6c48f6c2207dabf38a2038c13a526b4568ff544adc876997a78a3cac884304de",
      "csr" -> "fd980c1bd8e1712f85070a8109c6c6ec8cb9490bcd0853d4c41005411b613db7",
      "d4" -> "48884ae0315c0c58ba43af5457b3912a8a281920de9732edcec28832f9d773c4",
      "exactBC" -> "90c1036c385699531d1e86de69f07d114f7603a113fc0a74e47324e780f8c2a7",
      "lcc" -> "8fddf76b600f5f62abf68977924a30bf12db3c90bb154467cf4537199868b4f4"),
    Map(
      "approxBC" -> "92095bbd770683d0f95ffb8c79649e0ff4caa5781278400cd9723b146802b58d",
      "card" -> "3b90b576911378a4fc6cd2621b76646a4d30be1decb29885a74b1f89182847d8",
      "cells.names" -> "4c881aca6c809abeff0263644962bb1da3319d77f975be14b160d62ac7f4ff46",
      "cells.pairs" -> "72ffdc15c80e9c1849b8b7e0816fd5c3d9373b08bee8c9bb16b1808440fbcfda",
      "classes" -> "836b6bd0a9e3e32f3d2bd942f217614f804f90a6fa81f48b48b999b8983749e4",
      "csr" -> "75ae977ed434a8443c50f3e02994a30e607fe375fa49f3975741696214f910fc",
      "d4" -> "3d17b5c4bc011e5724638b153043d0fb2cbaaeb5d08a36677ec9adfd9a9e10e5",
      "exactBC" -> "c2157510111998ef070d80582e4f1f47f3db9462c044e4b3ada4e1a0a53ecbf2",
      "lcc" -> "657798908bbd12c68e8ec292679767757d07754d4b342adda5b89931146a00e3"),
    Map(
      "approxBC" -> "f985b44ec95d239fc1a8dac6f28c01b153d8a650dd16e0a63a8fb664525e5c19",
      "card" -> "e270366be46645d02be89c033a4f379ba42a5f057f42ac888e798051ccd0a0fa",
      "cells.names" -> "1187ecda4253488a01c9a1c1c7e3126d4ee672a314f880343ec3dd246751fe0c",
      "cells.pairs" -> "60f3841e1fe4f7b98f74e80fc6e01220bfd6041fe6658d9fe5da2173bd40f7b2",
      "classes" -> "e37dcb94b545068ac41a88a17b96a73fe2aca233eca9248eed04c97f26320978",
      "csr" -> "1d4b9d80ef1c72c7a1c3007e88305ccf66f430cf37cf439b7a274d239e1a6180",
      "d4" -> "6afdec22a9a3b026416428162f4b794416b1842c714b804baf4ffcde18fccadd",
      "exactBC" -> "4e5c571c7ac3179bb938aafb722376ffcf1d7433edc3651f5b466800380773ee",
      "lcc" -> "04f6288f1dea8102c9730933b6ccfe300b794898682bb28e2d2d061de67fa82d"))

  private val TusI: Map[String, String] = Map(
    "approxBC" -> "d9766abc0f6653acb78a30884f75b6d15f594d6d68e2fd3ff41c772f208b8605",
    "card" -> "5ebea7debe12173e1fdd43e765633ea8ea570d287c228e7df2c7caf439541f0f",
    "cells.names" -> "a8cda16fb74482a34c09c42488c8bf28144fbae9ddc55bc937961289216fe9b9",
    "cells.pairs" -> "3a0e243ce1bf8fd71e396b2888ea15eb0987c6157071ea5c36bb9a88c86d6fc9",
    "classes" -> "62e3a5fd9fc906eb0473b3731e448c70bf71d3a04deef143b321ad9369833749",
    "csr" -> "2ec868517ab3c55ed47b8929c474faeae97c46c0260a9f0782263c50b51b26b1",
    "exactBC" -> "373084c6b375f6efc1ac48c3060d5905e578ab52d3de00038ea6847fc5e81ce4",
    "lcc" -> "a12b291bb89a07229175aa3ba3057b2d5553637b1d5c0f855d19651656bb4b2d")

  private val Tus: Map[String, String] = Map(
    "approxBC" -> "9d79e53474fdf8de78c1cec07918dce75eabb37450520943d1b3a1ccec166056",
    "card" -> "e249e38c6b483ac37737d425cfb21cd2c6e03de7a4a8eb196e5c52d0b44fe912",
    "cells.names" -> "7408c36e3172a10dd5e69ba2ad85338c12618d546ed6da87745aa1f41c9df572",
    "cells.pairs" -> "287f653fc9ab95b0dd2a50e58308315555d9c6597fd78d08f0698ad522196b51",
    "classes" -> "c1de94c5c3884ba66ac247bb8c6b5e59ee6ce8f820aa7cd839ed68f02a3ff5d2",
    "csr" -> "1c9b4a5b134d20ecbaa92472b75b49737b1b4ff70ae6b247be34f5d826d238c6",
    "exactBC" -> "56fdf0e64b4a35d35869d5eb0929b366c72283e36faf3f95ee1b3db8513dc1eb",
    "lcc" -> "36fd583647a0cf41d413b578c86570940ce679896005baedeba89c2baaa394e4")
}

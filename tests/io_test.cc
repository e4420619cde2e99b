#include "data/io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "data/generator.h"
#include "tests/legacy_text_reader.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace sssj {
namespace {

using ::sssj::testing::Item;
using ::sssj::testing::TextReadMismatch;
using ::sssj::testing::UnitVec;

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/sssj_io_" + name;
  }

  Stream SampleStream() {
    CorpusSpec spec;
    spec.num_vectors = 60;
    spec.num_dims = 500;
    spec.avg_nnz = 12;
    spec.seed = 4;
    return CorpusGenerator(spec).Generate();
  }

  static void ExpectStreamsEqual(const Stream& a, const Stream& b,
                                 double tol) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].id, i);
      EXPECT_NEAR(a[i].ts, b[i].ts, tol);
      ASSERT_EQ(a[i].vec.nnz(), b[i].vec.nnz()) << "item " << i;
      for (size_t k = 0; k < a[i].vec.nnz(); ++k) {
        EXPECT_EQ(a[i].vec.coord(k).dim, b[i].vec.coord(k).dim);
        EXPECT_NEAR(a[i].vec.coord(k).value, b[i].vec.coord(k).value, tol);
      }
    }
  }
};

TEST_F(IoTest, TextRoundTrip) {
  const Stream original = SampleStream();
  const std::string path = TempPath("round.txt");
  Status status = WriteTextStream(original, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  Stream loaded;
  status = ReadTextStream(path, &loaded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectStreamsEqual(original, loaded, 1e-12);
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRoundTripIsExact) {
  const Stream original = SampleStream();
  const std::string path = TempPath("round.bin");
  Status status = WriteBinaryStream(original, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  Stream loaded;
  status = ReadBinaryStream(path, &loaded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectStreamsEqual(original, loaded, 0.0);
  std::remove(path.c_str());
}

TEST_F(IoTest, TextToBinaryConversionPreservesStream) {
  const Stream original = SampleStream();
  const std::string tpath = TempPath("conv.txt");
  const std::string bpath = TempPath("conv.bin");
  ASSERT_TRUE(WriteTextStream(original, tpath).ok());
  Stream from_text;
  ASSERT_TRUE(ReadTextStream(tpath, &from_text).ok());
  ASSERT_TRUE(WriteBinaryStream(from_text, bpath).ok());
  Stream from_bin;
  ASSERT_TRUE(ReadBinaryStream(bpath, &from_bin).ok());
  ExpectStreamsEqual(from_text, from_bin, 0.0);
  std::remove(tpath.c_str());
  std::remove(bpath.c_str());
}

TEST_F(IoTest, ReadMissingFileFailsWithNotFound) {
  Stream s;
  const Status text = ReadTextStream("/nonexistent/sssj.txt", &s);
  EXPECT_EQ(text.code(), StatusCode::kNotFound);
  EXPECT_NE(text.message().find("cannot open"), std::string::npos);
  EXPECT_NE(text.message().find("/nonexistent/sssj.txt"), std::string::npos);
  const Status bin = ReadBinaryStream("/nonexistent/sssj.bin", &s);
  EXPECT_EQ(bin.code(), StatusCode::kNotFound);
}

TEST_F(IoTest, WriteToUnwritablePathFailsWithIoError) {
  const Status status = WriteTextStream({}, "/nonexistent/dir/sssj.txt");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("for writing"), std::string::npos);
}

TEST_F(IoTest, TextCommentsAndBlankLinesSkipped) {
  const std::string path = TempPath("comments.txt");
  {
    std::ofstream f(path);
    f << "# comment\n\n1.5 3:0.6 4:0.8\n# another\n2.5 3:1.0\n";
  }
  Stream s;
  const Status status = ReadTextStream(path, &s);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].ts, 1.5);
  EXPECT_EQ(s[0].vec.nnz(), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, TextMalformedCoordFailsWithLineNumber) {
  const std::string path = TempPath("bad.txt");
  {
    std::ofstream f(path);
    f << "1.0 3:0.5\n2.0 3=0.5\n";
  }
  Stream s;
  const Status status = ReadTextStream(path, &s);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad coord"), std::string::npos);
  EXPECT_NE(status.message().find(":2:"), std::string::npos);  // line number
  std::remove(path.c_str());
}

TEST_F(IoTest, TextBadTimestampFails) {
  const std::string path = TempPath("badts.txt");
  {
    std::ofstream f(path);
    f << "abc 1:1.0\n";
  }
  Stream s;
  const Status status = ReadTextStream(path, &s);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad timestamp"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, OutOfOrderTimestampsRejectedWhenRequired) {
  const std::string path = TempPath("ooo.txt");
  {
    std::ofstream f(path);
    f << "2.0 1:1.0\n1.0 1:1.0\n";
  }
  Stream s;
  const Status strict = ReadTextStream(path, &s);
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.message().find("decreasing timestamp"), std::string::npos);
  ReadOptions opts;
  opts.require_ordered = false;
  const Status lax = ReadTextStream(path, &s, opts);
  EXPECT_TRUE(lax.ok()) << lax.ToString();
  EXPECT_EQ(s.size(), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, NormalizationOnReadIsOptional) {
  const std::string path = TempPath("norm.txt");
  {
    std::ofstream f(path);
    f << "0.0 1:3.0 2:4.0\n";
  }
  Stream normalized, raw;
  ASSERT_TRUE(ReadTextStream(path, &normalized).ok());
  ReadOptions opts;
  opts.normalize = false;
  ASSERT_TRUE(ReadTextStream(path, &raw, opts).ok());
  EXPECT_TRUE(normalized[0].vec.IsUnit());
  EXPECT_DOUBLE_EQ(raw[0].vec.norm(), 5.0);
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRejectsWrongMagic) {
  const std::string path = TempPath("magic.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTSSSJ!garbage";
  }
  Stream s;
  const Status status = ReadBinaryStream(path, &s);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("not an sssj binary"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRejectsTruncatedFileWithDataLoss) {
  const Stream original = SampleStream();
  const std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(WriteBinaryStream(original, path).ok());
  // Truncate the file in the middle.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
  }
  Stream s;
  const Status status = ReadBinaryStream(path, &s);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, EmptyStreamRoundTrips) {
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(WriteBinaryStream({}, path).ok());
  Stream s = {Item(0, 0.0, UnitVec({{1, 1.0}}))};  // must be cleared
  ASSERT_TRUE(ReadBinaryStream(path, &s).ok());
  EXPECT_TRUE(s.empty());
  std::remove(path.c_str());
}


// ---- strict coordinate validation ----
// ParseCoord historically fell through strtoul with whatever prefix
// parsed: "abc:1.0" read dim 0, "7x:0.5" read dim 7. Every token must
// now parse in full or name the line.

TEST_F(IoTest, TextRejectsNonNumericDimension) {
  for (const char* token : {"abc:1.0", ":0.5", "-1:0.5", "+2:0.5"}) {
    const std::string path = TempPath("strict_dim.txt");
    {
      std::ofstream f(path);
      f << "1.0 " << token << "\n";
    }
    Stream s;
    const Status status = ReadTextStream(path, &s);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << token;
    EXPECT_NE(status.message().find("bad coord"), std::string::npos)
        << token << " -> " << status.message();
    std::remove(path.c_str());
  }
}

TEST_F(IoTest, TextRejectsTrailingJunkInCoord) {
  for (const char* token : {"7x:0.5", "7:0.5x", "7:0.5:1"}) {
    const std::string path = TempPath("strict_junk.txt");
    {
      std::ofstream f(path);
      f << "1.0 " << token << "\n";
    }
    Stream s;
    const Status status = ReadTextStream(path, &s);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << token;
    std::remove(path.c_str());
  }
}

TEST_F(IoTest, TextRejectsDimensionOverflow) {
  // 2^32 does not fit DimId; the old code silently truncated mod 2^32.
  const std::string path = TempPath("dim_overflow.txt");
  {
    std::ofstream f(path);
    f << "1.0 4294967296:1.0\n";
  }
  Stream s;
  const Status status = ReadTextStream(path, &s);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad coord"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

// ---- stream-based reader cores ----
// The istream overloads must behave identically to the path overloads
// (they are the same code; the path version only adds the prefix) — the
// fuzz harnesses drive the cores directly, so equivalence is what makes
// their coverage transfer to the file-based API.

TEST_F(IoTest, TextStreamOverloadMatchesPathOverload) {
  const std::string text = "1.0 1:0.6 2:0.8\n2.0 3:1.0\n";
  const std::string path = TempPath("overload.txt");
  {
    std::ofstream f(path);
    f << text;
  }
  Stream from_path, from_stream;
  ASSERT_TRUE(ReadTextStream(path, &from_path).ok());
  std::istringstream is(text);
  ASSERT_TRUE(ReadTextStream(is, &from_stream).ok());
  ASSERT_EQ(from_stream.size(), from_path.size());
  for (size_t i = 0; i < from_path.size(); ++i) {
    EXPECT_EQ(from_stream[i].ts, from_path[i].ts);
    EXPECT_EQ(from_stream[i].vec.nnz(), from_path[i].vec.nnz());
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryStreamOverloadMatchesPathOverload) {
  const std::string path = TempPath("overload.bin");
  ASSERT_TRUE(WriteBinaryStream(SampleStream(), path).ok());
  std::ifstream f(path, std::ios::binary);
  std::stringstream buffer;
  buffer << f.rdbuf();
  Stream from_path, from_stream;
  ASSERT_TRUE(ReadBinaryStream(path, &from_path).ok());
  std::istringstream is(buffer.str());
  ASSERT_TRUE(ReadBinaryStream(is, &from_stream).ok());
  ASSERT_EQ(from_stream.size(), from_path.size());
  for (size_t i = 0; i < from_path.size(); ++i) {
    EXPECT_EQ(from_stream[i].ts, from_path[i].ts);
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryHostileNnzDoesNotPreallocate) {
  // One record declaring 2^32-1 coordinates with only a few bytes behind
  // it: the reader caps its reservation and fails on the missing bytes.
  std::string bytes = "SSSJBIN1";
  const uint64_t count = 1;
  const double ts = 1.0;
  const uint32_t nnz = 0xFFFFFFFFu;
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  bytes.append(reinterpret_cast<const char*>(&ts), sizeof(ts));
  bytes.append(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  std::istringstream is(bytes);
  Stream s;
  const Status status = ReadBinaryStream(is, &s);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}


// ---- block-buffered reader vs. the getline oracle ----
// ReadTextStream parses most lines in place with std::from_chars and
// hands every other line to the per-line istringstream parser. Both
// must add up to exactly the old reader (tests/legacy_text_reader.h):
// same Status code and message, same items bit for bit.

// Printable form of a test input for failure messages.
std::string Escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", u);
      out += hex;
    }
  }
  return out.size() > 200 ? out.substr(0, 200) + "..." : out;
}

void ExpectReadMatchesOracle(const std::string& text) {
  for (const bool normalize : {true, false}) {
    ReadOptions opts;
    opts.normalize = normalize;
    EXPECT_EQ(TextReadMismatch(text, opts), "")
        << "normalize=" << normalize << " input: " << Escaped(text);
  }
}

TEST_F(IoTest, TextReaderMatchesOracleOnEdgeCases) {
  using namespace std::string_literals;
  const std::vector<std::string> cases = {
      // Number forms: timestamps.
      "+1.0 3:0.5\n", "inf 3:0.5\n", "nan 3:0.5\n", "-inf 3:0.5\n",
      "1e999 3:0.5\n", "1e-400 3:0.5\n", "4e-320 3:0.5\n",
      "2.2250738585072011e-308 3:0.5\n", "2.2250738585072012e-308 3:0.5\n",
      "0x1p-2 3:0.5\n", ".5 3:0.5\n", "5. 3:0.5\n", "-0 3:0.5\n",
      "-.5 3:0.5\n", "1e 3:0.5\n", "1.5e+ 3:0.5\n", "1.5e+3 3:0.5\n",
      "1E3 3:0.5\n", "1.5.3 3:0.5\n", "--1 3:0.5\n", ". 3:0.5\n",
      "007 3:0.5\n", "1:0.5 2:0.5\n",
      // Number forms: values.
      "1.0 3:inf\n", "1.0 3:nan\n", "1.0 3:-inf 4:1\n", "1.0 3:1e999\n",
      "1.0 3:1e-400\n", "1.0 3:4e-320 4:1\n",
      "1.0 3:2.2250738585072011e-308 4:1\n",
      "1.0 3:2.2250738585072012e-308 4:1\n",
      "1.0 3:2.2250738585072014e-308 4:1\n",
      "1.0 3:1.7976931348623157e308 4:1\n",
      "1.0 3:1.7976931348623159e308\n", "1.0 3:0x1p-2\n", "1.0 3:+0.5\n",
      "1.0 3:.5\n", "1.0 3:5.\n", "1.0 3:-0 4:1\n", "1.0 3:0\n",
      "1.0 3:-0.5 4:1\n", "1.0 007:0.5\n", "1.0 3:0e-400 4:1\n",
      "1.0 3:0.1000000000000000055511151231257827\n",
      // Dims.
      "1.0 3:0.5 3:0.25\n", "1.0 4294967295:1\n", "1.0 4294967296:1\n",
      "1.0 99999999999999999999:1\n", "1.0 abc:1\n", "1.0 :0.5\n",
      "1.0 -1:0.5\n", "1.0 +2:0.5\n", "1.0 7x:0.5\n", "1.0 3:\n",
      "1.0 3\n", "1.0 3:0.5:1\n", "1.0 3=0.5\n",
      // Line forms.
      "1.5abc 3:1\n", "1.0 3:1.5abc\n", "1.0 3:0.5\r\n2.0 4:1\r\n",
      "\r\n1.0 3:0.5\n", "1.0\t3:0.5\v4:0.5\f5:0.5\n", " #1.0 3:0.5\n",
      "# comment\n\n1.0 3:0.5\n", "  1.0   3:0.5  \n", "   \n",
      "1.0 3:0.\0"s "5\n", "1.0\0 3:0.5\n"s, "1.0 3:0.5", "1.0 3:0.5\n2.0 4:1",
      "", "\n", "#", "1.0\n", "1.0 3:0.5\n0.5 3:0.5\n",
      "1.0 3:0.5\n1.0 3:0.5\n", "1.0 3:0.5\xa0" "4:1\n", "1.0\x85 3:0.5\n",
      "1.0 3:0.5\n\n\n2.0 bad\n",
  };
  for (const std::string& text : cases) ExpectReadMatchesOracle(text);
}

// A random number in one of the forms a text stream can carry: plain
// decimals of every precision, exponents, and the forms only the
// fallback accepts (leading '+', hex, inf/nan, denormals, overflow).
std::string RandomNumber(Rng& rng) {
  char buf[64];
  const double mag = std::pow(10.0, static_cast<double>(rng.NextBelow(40)) -
                                        20.0) *
                     rng.NextDouble();
  switch (rng.NextBelow(12)) {
    case 0:
      std::snprintf(buf, sizeof(buf), "%.17g", mag);
      break;
    case 1:
      std::snprintf(buf, sizeof(buf), "%.3f", mag * 1e20);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf), "%e", -mag);
      break;
    case 3:
      std::snprintf(buf, sizeof(buf), "%a", mag);
      break;
    case 4:
      std::snprintf(buf, sizeof(buf), "+%g", mag);
      break;
    case 5: {
      static const char* const kSpecial[] = {
          "inf", "nan", "-0", "0", ".5", "5.", "1e999", "1e-400", "4e-320",
          "2.2250738585072011e-308", "2.2250738585072012e-308", "1e", "-",
          "."};
      return kSpecial[rng.NextBelow(sizeof(kSpecial) / sizeof(kSpecial[0]))];
    }
    case 6:
      std::snprintf(buf, sizeof(buf), "%.17ge%d", rng.NextDouble(),
                    static_cast<int>(rng.NextBelow(660)) - 330);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "%.*g",
                    1 + static_cast<int>(rng.NextBelow(17)),
                    rng.NextDouble());
      break;
  }
  return buf;
}

std::string RandomDim(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0:
      return "4294967295";
    case 1:
      return "4294967296";
    case 2:
      return "00" + std::to_string(rng.NextBelow(100));
    case 3:
      return "x";
    default:
      return std::to_string(rng.NextBelow(64));
  }
}

// Records in the text grammar, perturbed now and then.
std::string RandomRecords(Rng& rng) {
  static const char kSpace[] = {' ', ' ', ' ', '\t', '\v', '\f', '\r'};
  std::string text;
  const int lines = 1 + static_cast<int>(rng.NextBelow(6));
  double ts = 0.0;
  for (int l = 0; l < lines; ++l) {
    if (rng.NextBelow(10) == 0) {
      text += rng.NextBelow(2) == 0 ? "# c" : " #";
    } else {
      ts += rng.NextDouble();
      if (rng.NextBelow(4) == 0) {
        text += RandomNumber(rng);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", ts);
        text += buf;
      }
      const int nnz = static_cast<int>(rng.NextBelow(6));
      for (int k = 0; k < nnz; ++k) {
        text += kSpace[rng.NextBelow(sizeof(kSpace))];
        text += RandomDim(rng) + ":" + RandomNumber(rng);
      }
    }
    if (rng.NextBelow(8) == 0) text += '\r';
    if (l + 1 < lines || rng.NextBelow(2) == 0) text += '\n';
  }
  return text;
}

// Bytes drawn mostly from the grammar's alphabet.
std::string RandomBytes(Rng& rng) {
  static const char kAlphabet[] = "0123456789.:-+eE \t\n\r\v\f#xinfa";
  std::string text;
  const size_t len = rng.NextBelow(64);
  for (size_t i = 0; i < len; ++i) {
    text += rng.NextBelow(50) == 0
                ? static_cast<char>(rng.NextBelow(256))
                : kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return text;
}

TEST_F(IoTest, TextReaderMatchesOracleOnRandomInputs) {
  Rng rng(2026);
  for (int round = 0; round < 3000; ++round) {
    ExpectReadMatchesOracle(round % 2 == 0 ? RandomRecords(rng)
                                           : RandomBytes(rng));
    if (HasFailure()) return;
  }
}

// The reader fills a 64 KiB block at a time; lines that straddle a
// block, end on its last byte or start its successor, and lines longer
// than two blocks, must read as the oracle reads them.
TEST_F(IoTest, TextReaderMatchesOracleAcrossBlockBoundaries) {
  constexpr size_t kBlock = 64 << 10;
  const std::string record = "2.5 1:0.25 2:0.5 3:0.75\n";
  for (size_t shift = 0; shift < 6; ++shift) {
    // A comment line sized so the record's '\n' lands at kBlock - 3 +
    // shift: the record straddles the boundary or ends right at it.
    const std::string head = "1.0 1:1\n#";
    const size_t newline_at = kBlock - 3 + shift;
    std::string text = head;
    text.append(newline_at - head.size() - record.size(), 'c');
    text += '\n';
    text += record;
    text += "3.0 +4:1\n4.0 5:1";
    ASSERT_EQ(text[newline_at], '\n');
    ASSERT_EQ(text.rfind('\n', newline_at - 1), newline_at - record.size());
    ExpectReadMatchesOracle(text);
  }
  // Lines longer than two blocks, on the fast path and the fallback.
  Rng rng(31);
  std::string long_line = "1.0";
  while (long_line.size() < 3 * kBlock) {
    long_line += " " + std::to_string(rng.NextBelow(100000)) + ":" +
                 std::to_string(0.5 + rng.NextDouble());
  }
  const std::string short_line = "2.0 7:0.5\n";
  ExpectReadMatchesOracle(short_line + long_line + "\n" + short_line);
  ExpectReadMatchesOracle(short_line + long_line + " 9:+1\n" + short_line);
  ExpectReadMatchesOracle(long_line + " 9:x\n");
  ExpectReadMatchesOracle(long_line);
  // Many short lines crossing several blocks.
  std::string many;
  for (int i = 0; many.size() < 5 * kBlock; ++i) {
    many += std::to_string(i) + " " + std::to_string(i % 97) + ":" +
            std::to_string(rng.NextDouble()) + (i % 5 == 0 ? "\r\n" : "\n");
  }
  ExpectReadMatchesOracle(many);
}

// A streambuf that serves `data`, then fails: underflow throws, which
// istream turns into badbit.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override {
    throw std::runtime_error("injected read failure");
  }

 private:
  std::string data_;
};

TEST_F(IoTest, TextReadErrorIsIoErrorNotTruncatedStream) {
  // A read that fails part way is an error, not a shorter stream: within
  // the first block and after several blocks.
  for (const int lines : {3, 20000}) {
    std::string text;
    for (int i = 0; i < lines; ++i) text += std::to_string(i) + " 1:1\n";
    FailingStreambuf buf(text);
    std::istream in(&buf);
    Stream s;
    const Status status = ReadTextStream(in, &s);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    EXPECT_NE(status.message().find(": read error"), std::string::npos)
        << status.message();
  }
}

TEST_F(IoTest, TextReadOfDirectoryIsIoError) {
  // libstdc++ opens a directory for reading and fails its first read
  // (EISDIR): an error, not an empty stream.
  const std::string dir = ::testing::TempDir();
  Stream s;
  const Status status = ReadTextStream(dir, &s);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_NE(status.message().find(dir), std::string::npos);
  EXPECT_NE(status.message().find("read error"), std::string::npos);
}

}  // namespace
}  // namespace sssj

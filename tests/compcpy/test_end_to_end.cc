/**
 * @file
 * Full-stack integration: CompCpy drives real DDR commands through the
 * simulated memory controller into the SmartDIMM buffer device; the
 * transformed bytes read back from simulated DRAM must match the
 * software implementations exactly.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/offload_engine.h"
#include "compress/deflate.h"
#include "crypto/tls_record.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"

namespace {

using namespace sd;

/** One-channel SmartDIMM test system. */
struct System
{
    EventQueue events;
    mem::BackingStore store;
    mem::DramGeometry geometry;
    mem::AddressMap map;
    smartdimm::BufferDevice dimm;
    std::unique_ptr<cache::MemorySystem> memory;
    compcpy::Driver driver;
    compcpy::CompCpyEngine::SharedState shared;
    compcpy::CompCpyEngine engine;

    explicit System(std::size_t llc_mb = 4)
        : geometry(makeGeometry()),
          map(geometry, mem::ChannelInterleave::kNone),
          dimm(events, map, store),
          driver(/*base=*/1ULL << 20, /*bytes=*/512ULL << 20),
          engine(makeMemory(llc_mb), driver, shared)
    {
    }

    static mem::DramGeometry
    makeGeometry()
    {
        mem::DramGeometry g;
        g.channels = 1;
        return g;
    }

    cache::MemorySystem &
    makeMemory(std::size_t llc_mb)
    {
        cache::CacheConfig cc;
        cc.size_bytes = llc_mb << 20;
        memory = std::make_unique<cache::MemorySystem>(
            events, geometry, mem::ChannelInterleave::kNone, cc,
            std::vector<mem::DimmDevice *>{&dimm});
        return *memory;
    }
};

TEST(EndToEnd, TlsOffloadMatchesSoftwareGcm)
{
    System sys;
    Rng rng(1);

    const std::size_t len = 4096;
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);

    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    // Stage plaintext in the source buffer (through the cache, like an
    // application would).
    const Addr sbuf = sys.driver.alloc(len);
    const Addr dbuf = sys.driver.alloc(len + kPageSize); // room for tag
    sys.memory->writeSync(sbuf, plain.data(), len);

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 42;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.engine.run(params);
    sys.engine.useSync(dbuf, divCeil(len + 16, kPageSize) * kPageSize);
    const auto result = sys.engine.readResult(dbuf, len + 16);

    // Software reference.
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(len);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, expect.data());

    ASSERT_EQ(result.size(), len + 16);
    EXPECT_EQ(0, std::memcmp(result.data(), expect.data(), len))
        << "ciphertext mismatch";
    EXPECT_EQ(0, std::memcmp(result.data() + len, tag.data(), 16))
        << "trailer tag mismatch";
}

TEST(EndToEnd, TlsOffloadMultiPageRecord)
{
    System sys;
    Rng rng(2);

    const std::size_t len = 3 * 4096 + 1000; // 4 source pages
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);

    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const std::size_t src_bytes = divCeil(len, kPageSize) * kPageSize;
    const Addr sbuf = sys.driver.alloc(src_bytes);
    const Addr dbuf = sys.driver.alloc(src_bytes + kPageSize);
    std::vector<std::uint8_t> staged(src_bytes, 0);
    std::memcpy(staged.data(), plain.data(), len);
    sys.memory->writeSync(sbuf, staged.data(), staged.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 7;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.engine.run(params);
    const std::size_t dst_bytes =
        divCeil(len + 16, kPageSize) * kPageSize;
    sys.engine.useSync(dbuf, dst_bytes);
    const auto result = sys.engine.readResult(dbuf, len + 16);

    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(len);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, expect.data());

    EXPECT_EQ(0, std::memcmp(result.data(), expect.data(), len));
    EXPECT_EQ(0, std::memcmp(result.data() + len, tag.data(), 16));
}

TEST(EndToEnd, TlsOffloadExactPageBoundaryTag)
{
    // message_len % 4096 == 0 forces a tag-only trailer page.
    System sys;
    Rng rng(3);

    const std::size_t len = 8192;
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const Addr sbuf = sys.driver.alloc(len);
    const Addr dbuf = sys.driver.alloc(len + kPageSize);
    sys.memory->writeSync(sbuf, plain.data(), len);

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 9;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.engine.run(params);
    sys.engine.useSync(dbuf, divCeil(len + 16, kPageSize) * kPageSize);
    const auto result = sys.engine.readResult(dbuf, len + 16);

    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(len);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, expect.data());
    EXPECT_EQ(0, std::memcmp(result.data(), expect.data(), len));
    EXPECT_EQ(0, std::memcmp(result.data() + len, tag.data(), 16));
}

TEST(EndToEnd, DeflateOffloadDecodable)
{
    System sys;
    Rng rng(4);

    // Compressible page.
    std::vector<std::uint8_t> page(4000);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>("compressible!"[i % 13]);

    const Addr sbuf = sys.driver.alloc(kPageSize);
    const Addr dbuf = sys.driver.alloc(kPageSize);
    std::vector<std::uint8_t> staged(kPageSize, 0);
    std::memcpy(staged.data(), page.data(), page.size());
    sys.memory->writeSync(sbuf, staged.data(), staged.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = page.size();
    params.ordered = true;
    params.ulp = smartdimm::UlpKind::kDeflate;

    sys.engine.run(params);
    sys.engine.useSync(dbuf, kPageSize);
    const auto framed = sys.engine.readResult(dbuf, kPageSize);

    // Frame: 2-byte length + deflate stream.
    const std::size_t stream_len = framed[0] | (framed[1] << 8);
    ASSERT_GT(stream_len, 0u);
    ASSERT_LE(stream_len + 2, framed.size());
    const auto back =
        compress::deflateDecompress(framed.data() + 2, stream_len);
    EXPECT_EQ(back, page);
    EXPECT_LT(stream_len, page.size()) << "should compress";
}

TEST(EndToEnd, AdaptiveEngineCpuAndOffloadAgree)
{
    System sys;
    Rng rng(5);

    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv static_iv{};
    rng.fill(static_iv.data(), static_iv.size());

    compcpy::AdaptiveTlsEngine engine(*sys.memory, sys.driver,
                                      sys.shared, key, static_iv);

    std::vector<std::uint8_t> msg(4096);
    rng.fill(msg.data(), msg.size());

    const auto cpu = engine.protectRecord(msg.data(), msg.size(),
                                          compcpy::ProcessedOn::kCpu);
    const auto dimm = engine.protectRecord(msg.data(), msg.size(),
                                           compcpy::ProcessedOn::kSmartDimm);

    // Different sequence numbers -> different nonces, so compare each
    // against its own software reference.
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    for (std::uint64_t seq = 0; seq < 2; ++seq) {
        crypto::GcmIv nonce = static_iv;
        for (int i = 0; i < 8; ++i)
            nonce[4 + i] ^=
                static_cast<std::uint8_t>(seq >> (56 - 8 * i));
        std::vector<std::uint8_t> expect(msg.size());
        const crypto::GcmTag tag =
            ctx.encrypt(nonce, msg.data(), msg.size(), expect.data());
        const auto &rec = seq == 0 ? cpu : dimm;
        ASSERT_EQ(rec.body.size(), msg.size() + 16);
        EXPECT_EQ(0, std::memcmp(rec.body.data(), expect.data(),
                                 msg.size()))
            << "seq " << seq;
        EXPECT_EQ(0, std::memcmp(rec.body.data() + msg.size(),
                                 tag.data(), 16))
            << "seq " << seq;
    }
    EXPECT_EQ(engine.cpuRecords(), 1u);
    EXPECT_EQ(engine.offloadedRecords(), 1u);
}

/** One SelfRecycleFreesScratchpad input: a ULP and a payload. */
struct RecycleInput
{
    smartdimm::UlpKind ulp;
    std::vector<std::uint8_t> payload;
};

/** Text-like bytes: words drawn from a small vocabulary. */
std::vector<std::uint8_t>
textLike(Rng &rng, std::size_t len)
{
    static const char *const kWords[] = {"the ", "scratchpad ", "page ",
                                         "drains ", "when ", "its ",
                                         "extent ", "lines ", "recycle. "};
    std::vector<std::uint8_t> out;
    while (out.size() < len) {
        const char *w = kWords[rng.below(std::size(kWords))];
        out.insert(out.end(), w, w + std::strlen(w));
    }
    out.resize(len);
    return out;
}

TEST(EndToEnd, SelfRecycleFreesScratchpad)
{
    System sys;
    Rng rng(6);
    std::uint8_t key[16];
    rng.fill(key, 16);

    auto randomBytes = [&rng](std::size_t len) {
        std::vector<std::uint8_t> out(len);
        rng.fill(out.data(), len);
        return out;
    };
    const std::vector<RecycleInput> inputs = {
        {smartdimm::UlpKind::kTlsEncrypt, randomBytes(4096)},
        {smartdimm::UlpKind::kTlsEncrypt, randomBytes(1000)},
        // The tag straddles into a second destination page.
        {smartdimm::UlpKind::kTlsEncrypt, randomBytes(4090)},
        // The tag fills a tag-only third page.
        {smartdimm::UlpKind::kTlsEncrypt, randomBytes(8192)},
        {smartdimm::UlpKind::kDeflate, textLike(rng, 1030)},
        {smartdimm::UlpKind::kDeflate, randomBytes(4001)},
    };
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);

    // More ops than the scratchpad has pages: every page must free
    // through the USE-side flush alone, or Force-Recycle would run.
    const std::size_t rounds = sys.dimm.config().scratchpadPages() + 64;
    for (std::size_t round = 0; round < rounds; ++round) {
        const RecycleInput &in = inputs[round % inputs.size()];
        const std::size_t len = in.payload.size();
        const bool tls = in.ulp == smartdimm::UlpKind::kTlsEncrypt;

        compcpy::CompCpyParams params;
        params.size = len;
        params.ulp = in.ulp;
        params.ordered = !tls;
        params.message_id = 1000 + round;
        std::memcpy(params.key, key, 16);
        params.iv[0] = static_cast<std::uint8_t>(round);
        params.iv[1] = static_cast<std::uint8_t>(round >> 8);
        const std::size_t dst_bytes =
            compcpy::CompCpyEngine::destPages(params) * kPageSize;
        params.sbuf = sys.driver.alloc(len);
        params.dbuf = sys.driver.alloc(dst_bytes);
        std::vector<std::uint8_t> staged(
            divCeil(len, kCacheLineSize) * kCacheLineSize, 0);
        std::memcpy(staged.data(), in.payload.data(), len);
        sys.memory->writeSync(params.sbuf, staged.data(), staged.size());

        sys.engine.run(params);
        sys.engine.useSync(params.dbuf, dst_bytes);
        if (tls) {
            const auto result = sys.engine.readResult(params.dbuf, len + 16);
            std::vector<std::uint8_t> expect(len + 16);
            const crypto::GcmTag tag = ctx.encrypt(
                params.iv, in.payload.data(), len, expect.data());
            std::memcpy(expect.data() + len, tag.data(), tag.size());
            ASSERT_EQ(result, expect) << "round " << round << ", " << len
                                      << " B TLS";
        } else {
            const auto framed = sys.engine.readResult(params.dbuf, kPageSize);
            const std::size_t stream_len = framed[0] | (framed[1] << 8);
            ASSERT_LE(stream_len + 2, framed.size()) << "round " << round;
            const auto back = compress::deflateTryDecompress(
                framed.data() + 2, stream_len, len);
            ASSERT_TRUE(back.has_value()) << "round " << round;
            ASSERT_EQ(*back, in.payload) << "round " << round << ", "
                                         << len << " B Deflate";
        }
        sys.driver.release(params.sbuf, len);
        sys.driver.release(params.dbuf, dst_bytes);
    }

    // Every offload's pages must have recycled via the USE-side
    // flush-induced writebacks.
    EXPECT_EQ(sys.dimm.scratchpad().livePages(), 0u);
    EXPECT_GT(sys.dimm.scratchpad().stats().self_recycles, 0u);
    EXPECT_EQ(sys.dimm.scratchpad().stats().force_recycles, 0u);
    EXPECT_EQ(sys.engine.stats().force_recycles, 0u);
}

/**
 * Another agent's uncached reads on the CompCpy's channel: keeps
 * @p depth reads in flight until @p total have completed.
 */
class ReadStream
{
  public:
    ReadStream(mem::MemoryController &mc, Addr base, std::size_t total)
        : mc_(mc), base_(base), total_(total)
    {
    }

    void
    start(unsigned depth)
    {
        for (unsigned i = 0; i < depth; ++i)
            next();
    }

    std::size_t done() const { return done_; }
    std::size_t total() const { return total_; }

  private:
    void
    next()
    {
        if (issued_ == total_)
            return;
        constexpr std::size_t kLines = 1024; // a 64 KB region
        const Addr addr = base_ + (issued_++ % kLines) * kCacheLineSize;
        mc_.enqueueRead(addr, sink_.data(), [this](Tick, mem::MemStatus) {
            ++done_;
            next();
        });
    }

    mem::MemoryController &mc_;
    Addr base_;
    std::size_t total_;
    std::size_t issued_ = 0;
    std::size_t done_ = 0;
    std::array<std::uint8_t, kCacheLineSize> sink_{};
};

TEST(EndToEnd, OffloadsUnderACompetingReadStreamAreByteExact)
{
    // The doorbell, registration and USE writes of a TLS and a
    // Deflate CompCpy must not starve behind another agent's reads:
    // both ops, USE included, finish while the stream still runs, and
    // their bytes are exact with no ALERT_N.
    System sys;
    Rng rng(8);

    const std::size_t tls_len = 4096;
    std::vector<std::uint8_t> plain(tls_len);
    rng.fill(plain.data(), tls_len);
    compcpy::CompCpyParams tls;
    tls.size = tls_len;
    tls.ulp = smartdimm::UlpKind::kTlsEncrypt;
    tls.message_id = 7;
    rng.fill(tls.key, sizeof(tls.key));
    rng.fill(tls.iv.data(), tls.iv.size());
    tls.sbuf = sys.driver.alloc(tls_len);
    tls.dbuf = sys.driver.alloc(2 * kPageSize);
    sys.memory->writeSync(tls.sbuf, plain.data(), tls_len);

    const std::vector<std::uint8_t> text = textLike(rng, 3000);
    compcpy::CompCpyParams deflate;
    deflate.size = text.size();
    deflate.ulp = smartdimm::UlpKind::kDeflate;
    deflate.ordered = true;
    deflate.sbuf = sys.driver.alloc(kPageSize);
    deflate.dbuf = sys.driver.alloc(kPageSize);
    std::vector<std::uint8_t> staged(kPageSize, 0);
    std::memcpy(staged.data(), text.data(), text.size());
    sys.memory->writeSync(deflate.sbuf, staged.data(), staged.size());

    ReadStream stream(sys.memory->controller(0), /*base=*/1ULL << 30,
                      /*total=*/6000);
    stream.start(/*depth=*/8);
    std::vector<std::size_t> stream_done_at;
    for (const auto *params : {&tls, &deflate}) {
        const std::size_t bytes =
            compcpy::CompCpyEngine::destPages(*params) * kPageSize;
        sys.engine.start(*params, [&, params, bytes] {
            sys.engine.use(params->dbuf, bytes, [&] {
                stream_done_at.push_back(stream.done());
            });
        });
    }
    sys.events.run();

    ASSERT_EQ(stream_done_at.size(), 2u);
    for (const std::size_t done : stream_done_at)
        EXPECT_LT(done, stream.total() / 2) << "an op waited out the stream";
    EXPECT_EQ(stream.done(), stream.total());

    crypto::GcmContext ctx(tls.key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(tls_len + 16);
    const crypto::GcmTag tag =
        ctx.encrypt(tls.iv, plain.data(), tls_len, expect.data());
    std::memcpy(expect.data() + tls_len, tag.data(), tag.size());
    EXPECT_EQ(sys.engine.readResult(tls.dbuf, tls_len + 16), expect);

    const auto framed = sys.engine.readResult(deflate.dbuf, kPageSize);
    const std::size_t stream_len = framed[0] | (framed[1] << 8);
    ASSERT_LE(stream_len + 2, framed.size());
    const auto back = compress::deflateTryDecompress(
        framed.data() + 2, stream_len, text.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, text);

    EXPECT_EQ(sys.dimm.stats().alert_n, 0u);
    EXPECT_EQ(sys.engine.stats().degraded_calls, 0u);
}

} // namespace

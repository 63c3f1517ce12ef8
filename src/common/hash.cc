#include "hash.hh"

#include <array>

namespace qei {

namespace {

/** Build the CRC32-C lookup table at static-init time. */
std::array<std::uint32_t, 256>
makeCrcTable()
{
    constexpr std::uint32_t poly = 0x82F63B78u; // reflected 0x1EDC6F41
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
        table[i] = crc;
    }
    return table;
}

const std::array<std::uint32_t, 256> g_crcTable = makeCrcTable();

std::uint32_t
rot(std::uint32_t x, int k)
{
    return (x << k) | (x >> (32 - k));
}

void
jhashMix(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c)
{
    a -= c; a ^= rot(c, 4);  c += b;
    b -= a; b ^= rot(a, 6);  a += c;
    c -= b; c ^= rot(b, 8);  b += a;
    a -= c; a ^= rot(c, 16); c += b;
    b -= a; b ^= rot(a, 19); a += c;
    c -= b; c ^= rot(b, 4);  b += a;
}

void
jhashFinal(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c)
{
    c ^= b; c -= rot(b, 14);
    a ^= c; a -= rot(c, 11);
    b ^= a; b -= rot(a, 25);
    c ^= b; c -= rot(b, 16);
    a ^= c; a -= rot(c, 4);
    b ^= a; b -= rot(a, 14);
    c ^= b; c -= rot(b, 24);
}

} // namespace

std::uint32_t
crc32c(const void* data, std::size_t len, std::uint32_t init)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t crc = init;
    for (std::size_t i = 0; i < len; ++i)
        crc = g_crcTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::uint32_t
jhash(const void* data, std::size_t len, std::uint32_t init)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t a, b, c;
    a = b = c = 0xDEADBEEFu + static_cast<std::uint32_t>(len) + init;

    while (len > 12) {
        a += static_cast<std::uint32_t>(p[0]) |
             (static_cast<std::uint32_t>(p[1]) << 8) |
             (static_cast<std::uint32_t>(p[2]) << 16) |
             (static_cast<std::uint32_t>(p[3]) << 24);
        b += static_cast<std::uint32_t>(p[4]) |
             (static_cast<std::uint32_t>(p[5]) << 8) |
             (static_cast<std::uint32_t>(p[6]) << 16) |
             (static_cast<std::uint32_t>(p[7]) << 24);
        c += static_cast<std::uint32_t>(p[8]) |
             (static_cast<std::uint32_t>(p[9]) << 8) |
             (static_cast<std::uint32_t>(p[10]) << 16) |
             (static_cast<std::uint32_t>(p[11]) << 24);
        jhashMix(a, b, c);
        p += 12;
        len -= 12;
    }

    // All case labels fall through by design (tail accumulation).
    switch (len) {
      case 12: c += static_cast<std::uint32_t>(p[11]) << 24; [[fallthrough]];
      case 11: c += static_cast<std::uint32_t>(p[10]) << 16; [[fallthrough]];
      case 10: c += static_cast<std::uint32_t>(p[9]) << 8;   [[fallthrough]];
      case 9:  c += static_cast<std::uint32_t>(p[8]);        [[fallthrough]];
      case 8:  b += static_cast<std::uint32_t>(p[7]) << 24;  [[fallthrough]];
      case 7:  b += static_cast<std::uint32_t>(p[6]) << 16;  [[fallthrough]];
      case 6:  b += static_cast<std::uint32_t>(p[5]) << 8;   [[fallthrough]];
      case 5:  b += static_cast<std::uint32_t>(p[4]);        [[fallthrough]];
      case 4:  a += static_cast<std::uint32_t>(p[3]) << 24;  [[fallthrough]];
      case 3:  a += static_cast<std::uint32_t>(p[2]) << 16;  [[fallthrough]];
      case 2:  a += static_cast<std::uint32_t>(p[1]) << 8;   [[fallthrough]];
      case 1:  a += static_cast<std::uint32_t>(p[0]);
               jhashFinal(a, b, c);
               break;
      case 0:  break;
    }
    return c;
}

std::uint64_t
fnv1a64(const void* data, std::size_t len)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

std::uint64_t
computeHash(HashFunction fn, const void* data, std::size_t len,
            std::uint64_t seed)
{
    switch (fn) {
      case HashFunction::Crc32c:
        return mix64(crc32c(data, len,
                            0xFFFFFFFFu ^
                                static_cast<std::uint32_t>(seed)));
      case HashFunction::Jenkins:
        return mix64(jhash(data, len, static_cast<std::uint32_t>(seed)));
      case HashFunction::Fnv1a:
        return mix64(fnv1a64(data, len) ^ seed);
    }
    return 0;
}

} // namespace qei

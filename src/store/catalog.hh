/**
 * @file
 * Image catalog: named images as chunk-digest recipes.
 *
 * A flat image is a capacity plus one golden content base; an overlay
 * image (elijah-style delta) is a base image plus a small set of
 * modified runs.  Both reduce to a vector of chunk digests into the
 * shared ChunkStore — an overlay re-references every base chunk its
 * deltas do not touch, so a family of near-identical images stores
 * each shared chunk once.
 */

#ifndef STORE_CATALOG_HH
#define STORE_CATALOG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "store/chunk_store.hh"

namespace store {

/** One modified run of an overlay image (absolute image LBAs). */
struct DeltaRun
{
    sim::Lba lba = 0;
    std::uint32_t count = 0;
    std::uint64_t base = 0;
};

/** An image resolved to its chunk recipe. */
struct ImageDesc
{
    std::uint16_t major = 0; //!< AoE shelf address serving it
    sim::Lba sectors = 0;
    std::vector<Digest> chunks;
};

class ImageCatalog
{
  public:
    explicit ImageCatalog(ChunkStore &chunks) : store_(chunks) {}

    /** Register a flat golden image (every sector holds @p base). */
    const ImageDesc &addFlat(const std::string &name,
                             std::uint16_t major, sim::Lba sectors,
                             std::uint64_t base);

    /** Register @p name as @p baseImage with @p deltas applied;
     *  untouched chunks share the base image's digests. */
    const ImageDesc &addOverlay(const std::string &name,
                                std::uint16_t major,
                                const std::string &baseImage,
                                const std::vector<DeltaRun> &deltas);

    /** Drop an image, releasing its chunk references. */
    void remove(const std::string &name);

    const ImageDesc *find(const std::string &name) const;

    Digest digestAt(const std::string &name,
                    std::size_t chunkIdx) const;

    /** Write one chunk's content into @p out at its image offset. */
    void fillChunk(const std::string &name, std::size_t chunkIdx,
                   hw::DiskStore &out) const;

    /** Reconstruct the whole image into @p out (property tests). */
    void materialize(const std::string &name,
                     hw::DiskStore &out) const;

    /**
     * True when @p disk holds exactly the image's content over every
     * chunk-payload run (gaps, which read as zero on both sides
     * unless a tenant wrote there, are not checked).
     */
    bool verifyDisk(const std::string &name,
                    const hw::DiskStore &disk) const;

    /** Every registered image, by name (digest-sharing walks). */
    const std::map<std::string, ImageDesc> &images() const
    {
        return images_;
    }

  private:
    const ImageDesc &insert(const std::string &name, ImageDesc desc);

    ChunkStore &store_;
    std::map<std::string, ImageDesc> images_;
};

} // namespace store

#endif // STORE_CATALOG_HH

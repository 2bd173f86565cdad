/**
 * @file
 * The RunResult record codec shared by the run-cache spill and the
 * sweep checkpoint manifest (layout version 2).
 *
 * A record is one JSON object with a fixed field order:
 *
 *   {"cycles":C,"allComplete":B,"events":E,"processes":[P,...]}
 *
 * E is [] when every event count is zero, otherwise kNumContexts
 * rows of kNumEventIds counts. Each P is a positional array
 *
 *   [pid,"benchmark",complete,launchCycle,completionCycle,
 *    durationCycles,gcRuns,allocatedBytes]
 *
 * RunResult::cancelled is never written: a cancelled result is
 * partial and is never persisted.
 *
 * RecordReader reads the documents that frame these records without
 * building a tree. It accepts exactly the layout the writers emit
 * (whitespace only around list elements), so a truncated, corrupt or
 * older-version document fails as a whole.
 */

#ifndef JSMT_EXEC_RESULT_CODEC_H
#define JSMT_EXEC_RESULT_CODEC_H

#include <cstdint>
#include <string>
#include <string_view>

#include "core/run_result.h"

namespace jsmt::exec {

/** Opening bytes of every spill and manifest in the v2 layout. */
inline constexpr std::string_view kVersionHeader = "{\"version\":2,";

/** Append @p result to @p out as one v2 record. */
void writeRunResultJson(std::string& out, const RunResult& result);

/**
 * Strict forward-only reader over a spill or manifest document.
 * After any failed read the position is unspecified: the caller
 * rejects the whole document.
 */
class RecordReader
{
  public:
    explicit RecordReader(std::string_view text)
        : _at(text.data()), _end(text.data() + text.size())
    {
    }

    /** Consume @p token if the input continues with it. */
    bool accept(std::string_view token);

    /** Read a string (only the \" and \\ escapes exist). */
    bool string(std::string* out);

    /** Read an unsigned decimal integer. */
    bool number(std::uint64_t* out);

    /** Read one v2 record into @p out (overwritten entirely). */
    bool runResult(RunResult* out);

    /**
     * Read a `[item,...]` list; @p item reads one element and
     * returns false to reject it.
     */
    template <typename Item>
    bool
    list(Item&& item)
    {
        if (!accept("["))
            return false;
        skipSpace();
        if (accept("]"))
            return true;
        do {
            skipSpace();
            if (!item())
                return false;
            skipSpace();
        } while (accept(","));
        return accept("]");
    }

    /** @return whether only whitespace remains. */
    bool atEnd();

  private:
    bool boolean(bool* out);
    void skipSpace();

    const char* _at;
    const char* _end;
};

} // namespace jsmt::exec

#endif // JSMT_EXEC_RESULT_CODEC_H

/**
 * @file
 * Whole-file export writer shared by the sweep JSON and trace exports.
 */

#ifndef BAUVM_SIM_WRITE_FILE_H_
#define BAUVM_SIM_WRITE_FILE_H_

#include <string>
#include <string_view>

namespace bauvm
{

/**
 * Replaces the contents of @p path with @p data and checks every step
 * (open, each write, ftruncate, close), so an error that only shows up
 * at close, such as ENOSPC or EIO on flush, is reported as a failure.
 * Failures warn() with @p who as the prefix and return false. A path
 * that is not a regular file (/dev/stdout, /dev/null, a FIFO) is
 * written but not truncated.
 *
 * The file is overwritten in place and then truncated to the new
 * length, never truncated to zero first: on ext4 (auto_da_alloc) a
 * truncate-to-zero rewrite forces a flush that stalls close() for tens
 * of milliseconds. The cost is that a crash mid-write leaves a mix of
 * old and new bytes; a writer that needs an atomic replace uses a temp
 * file plus rename instead (as the result cache does).
 */
bool writeFileInPlace(const std::string &path, std::string_view data,
                      const char *who);

} // namespace bauvm

#endif // BAUVM_SIM_WRITE_FILE_H_

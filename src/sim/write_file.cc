#include "src/sim/write_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/sim/log.h"

namespace bauvm
{

bool
writeFileInPlace(const std::string &path, std::string_view data,
                 const char *who)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        warn("%s: cannot open '%s' for writing: %s", who, path.c_str(),
             std::strerror(errno));
        return false;
    }
    const char *failed = nullptr; // the step that failed, with its errno
    int err = 0;
    const auto fail = [&](const char *step) {
        failed = step;
        err = errno;
    };
    for (std::size_t done = 0; done < data.size() && failed == nullptr;) {
        const ssize_t n =
            ::write(fd, data.data() + done, data.size() - done);
        if (n > 0)
            done += static_cast<std::size_t>(n);
        else if (n == 0 || errno != EINTR)
            fail("write");
    }
    // Only a regular file has a length to cut: ftruncate() fails with
    // EINVAL on /dev/stdout, /dev/null or a FIFO, which take the bytes
    // as they are.
    struct stat st = {};
    if (failed == nullptr && ::fstat(fd, &st) != 0)
        fail("stat");
    if (failed == nullptr && S_ISREG(st.st_mode) &&
        ::ftruncate(fd, static_cast<off_t>(data.size())) != 0)
        fail("truncate");
    if (::close(fd) != 0 && failed == nullptr)
        fail("close");
    if (failed != nullptr) {
        warn("%s: %s of '%s' failed: %s", who, failed, path.c_str(),
             std::strerror(err));
        return false;
    }
    return true;
}

} // namespace bauvm

/* peak_rss: run a command and print its peak resident set size.
 *
 *   cc -O2 -o build/peak_rss scripts/peak_rss.c
 *   build/peak_rss ./build/xchain-sweep --protocol=two-party
 *
 * Runs the command as a child, waits for it with wait4() and, once it has
 * exited, prints "peak RSS <kB> kB (<MB> MB)" as the last line on stdout.
 * Exits with the child's status (128 + the signal number when a signal
 * ended it), or 127 when the command could not be started.
 *
 * Linux counts the memory a child inherited at fork in its peak, and keeps
 * that peak across exec, so a reading is never below its parent's own
 * footprint. This parent is a few hundred kB, so the reading is the
 * command's own; a Python wrapper adds its ~14 MB. `peak_rss /bin/true`
 * prints the floor.
 */
#define _GNU_SOURCE
#include <stdio.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: peak_rss COMMAND [ARG]...\n");
    return 2;
  }
  fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    perror("peak_rss: fork");
    return 127;
  }
  if (pid == 0) {
    execvp(argv[1], argv + 1);
    perror("peak_rss: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage ru;
  if (wait4(pid, &status, 0, &ru) < 0) {
    perror("peak_rss: wait4");
    return 127;
  }
  printf("peak RSS %ld kB (%.1f MB)\n", ru.ru_maxrss, ru.ru_maxrss / 1024.0);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

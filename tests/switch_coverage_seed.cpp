/**
 * @file
 * Seeded violation for the compiler_switch_coverage ctest: the switch
 * misses Cat::Upgrade and has no default, so the project's
 * -Werror=switch must refuse to compile this file.
 */

enum class Cat { Read, Write, Upgrade };

int
costOf(Cat c)
{
    switch (c) {
      case Cat::Read:
        return 1;
      case Cat::Write:
        return 2;
    }
    return 0;
}
